#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload rcv1-sparse-bsp --seed 1 --seconds 10 --trace 0
#
# Every build artefact, cache and trace stays under .bench_build/ in the
# checkout, so the run writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
