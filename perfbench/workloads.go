package main

import (
	"malt/internal/compress"
	"malt/internal/consistency"
	"malt/internal/data"
)

// workloads are the benchmark's training configurations. Each uses two
// ranks, cb = 50 and gradient averaging over the All dataflow; README.md
// says why each exists and which layers it loads.
var workloads = []workload{
	// The paper's headline sparse workload: O(dim) SGD shrink, sparse encode
	// and densifying decode, ring copies and the BSP barrier, in process.
	{
		Name:  "rcv1-sparse-bsp",
		Shape: data.RCV1Shape, Test: 8000, Lambda: 1e-5, Eta0: 1,
		Sparse: true, Sync: consistency.BSP,
		Steps: 200, SnapEvery: 5,
		SerialExamples: 16000, SerialSnapEvery: 250,
		TargetFrac: 0.65,
	},
	// The only path through compress topk with error feedback, vol gradient
	// buckets and the dstorm send coalescer: dense RCV1 updates, in process.
	{
		Name:  "rcv1-topk-bsp",
		Shape: data.RCV1Shape, Test: 8000, Lambda: 1e-5, Eta0: 1,
		Sync: consistency.BSP, Pipeline: true, BucketBytes: 64 << 10,
		Compress: compress.Options{Codec: "topk"},
		Steps:    120, SnapEvery: 3,
		SerialExamples: 16000, SerialSnapEvery: 250,
		TargetFrac: 0.65, LossCeiling: 0.9,
	},
	// The only path through fabric/stream: small dense updates over loopback
	// TCP, bound by message count and barrier latency.
	{
		Name:  "alpha-tcp-bsp",
		Shape: data.AlphaShape, Train: 2000, Test: 1000, Lambda: 1e-5, Eta0: 0.05,
		Sync: consistency.BSP, TCP: true,
		Steps: 400, SnapEvery: 5,
		SerialExamples: 16000, SerialSnapEvery: 250,
		TargetFrac: 0.5,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}
