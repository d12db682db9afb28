// Command perfbench is the repository's end-to-end benchmark: it trains
// the SVM workloads of workloads.go on a two-rank MALT cluster, checks the
// trained models, and prints named end-to-end metrics — or, with
// --trace 1, per-layer metrics from spans recorded around every call into
// a layer — as one JSON object on the last line of standard output.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload rcv1-sparse-bsp --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"malt/internal/data"
)

// wallCap stops starting new trials once a run has taken this long, so a
// run ends well inside three minutes on a slow host.
const wallCap = 110 * time.Second

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "dataset seed")
	seconds := fs.Int("seconds", 10, "seconds of timed training to measure")
	traceOn := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", *name, workloadNames())
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	began := time.Now()
	budget := time.Duration(*seconds) * time.Second

	ds, target, err := serialTarget(w, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload %s seed %d: target test loss %.4f\n", w.Name, *seed, target)

	var checked, plain, traced []*trial
	var res result
	var checkErrs []error
	measured := time.Duration(0)
	// Trial 0 warms caches, the heap and the scheduler and is checked but
	// not reported; after it a traced run alternates plain and traced
	// trials so both see the same host conditions.
	for k := 0; ; k++ {
		warmup := k == 0
		tracing := *traceOn == 1 && k > 0 && k%2 == 0
		enough := measured >= budget && len(plain) >= 3 && (*traceOn == 0 || len(traced) >= 2)
		if enough || (time.Since(began) > wallCap && len(plain) > 0) {
			break
		}
		var tr *Tracer
		if tracing {
			tr = newTracer(ranks)
		}
		t, err := runTrial(w, *seed, tr)
		if t != nil {
			res.Attempted += t.Writes
			res.Failed += t.Failed
		}
		if err == nil {
			err = checkTrial(w, t, target)
		}
		if err == nil && !warmup && !tracing {
			// One serial repetition per reported trial, interleaved, so
			// both medians sample the same stretch of host conditions.
			t.Serial, err = runSerial(w, ds)
		}
		if err != nil {
			res.Failed++
			checkErrs = append(checkErrs, fmt.Errorf("trial %d: %w", k, err))
			if len(checkErrs) >= 3 {
				break
			}
			continue
		}
		if !warmup {
			measured += t.Region
		}
		fmt.Fprintf(stdout, "trial %d warmup=%v traced=%v: %d examples in %.3fs, setup %.3fs, final loss %.4f, digest %s\n",
			k, warmup, tracing, t.Examples, t.Region.Seconds(), t.Setup.Seconds(), t.Loss, t.Digest)
		switch {
		case warmup:
			checked = append(checked, t)
		case tracing:
			traced = append(traced, t)
		default:
			plain = append(plain, t)
		}
	}
	if len(plain) == 0 || (*traceOn == 1 && len(traced) == 0) {
		return fmt.Errorf("no trial completed: %w", errors.Join(checkErrs...))
	}
	checked = append(append(checked, plain...), traced...)
	if err := checkDigests(w, checked); err != nil {
		res.Failed++
		checkErrs = append(checkErrs, err)
	}
	for _, e := range checkErrs {
		fmt.Fprintln(stdout, "check failed:", e)
	}
	if w.Deterministic() {
		fmt.Fprintf(stdout, "model digest %s (rank 0, over %d trials)\n", plain[0].Digest, len(checked))
	}

	var m *metricSet
	if *traceOn == 1 {
		m, err = perLayerMetrics(w, traced, plain)
		if err == nil {
			err = writeSpans(*traceDir, w.Name, *seed, traced[len(traced)-1].Spans)
		}
	} else {
		m, err = endToEndMetrics(plain, target)
	}
	if err != nil {
		return err
	}
	for _, d := range m.decls {
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", d.Name, m.values[d.Name].Value, d.Unit)
	}
	if len(plain) >= 2 {
		// The spread between trials of one run, in the form the bounds
		// are written in: a wide one means the host was unsteady.
		var eps []float64
		for _, t := range plain {
			eps = append(eps, examplesPerS(t))
		}
		fmt.Fprintf(stdout, "trial-to-trial spread of examples per second (IQR / median): %.3f over %d trials\n", relativeIQR(eps), len(eps))
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	res.Correct = len(checkErrs) == 0
	res.Metrics = m.values
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// serialTarget generates the seed's data, runs the single-rank baseline
// once and derives the run's target loss from it. The serial losses are a
// pure function of the data; only their times vary between repetitions,
// so each measured trial is paired with a serial repetition of its own.
func serialTarget(w workload, seed int64) (*data.Dataset, float64, error) {
	spec, err := w.spec(seed)
	if err != nil {
		return nil, 0, err
	}
	ds, err := data.GenerateClassification(spec)
	if err != nil {
		return nil, 0, err
	}
	r, err := runSerial(w, ds)
	if err != nil {
		return nil, 0, err
	}
	c := r.Curve
	target := c[0].Loss - w.TargetFrac*(c[0].Loss-c[len(c)-1].Loss)
	if math.IsNaN(timeToLoss(c, target)) {
		return nil, 0, fmt.Errorf("serial baseline never reached loss %.4f", target)
	}
	return ds, target, nil
}

// checkTrial verifies one trial's outputs.
func checkTrial(w workload, t *trial, target float64) error {
	if math.IsNaN(t.Loss) || math.IsInf(t.Loss, 0) {
		return fmt.Errorf("final loss is %v", t.Loss)
	}
	if w.LossCeiling > 0 && t.Loss > w.LossCeiling {
		return fmt.Errorf("final loss %.4f above the ceiling %.4f", t.Loss, w.LossCeiling)
	}
	if ttl := timeToLoss(t.Curve, target); math.IsNaN(ttl) {
		return fmt.Errorf("never reached the target loss %.4f (final %.4f)", target, t.Loss)
	}
	if w.Deterministic() && t.Overwritten > 0 {
		return fmt.Errorf("%d updates overwritten before a gather under BSP", t.Overwritten)
	}
	return nil
}

// checkDigests requires every trial of a bulk-synchronous workload —
// traced or not — to end on the bit-identical model.
func checkDigests(w workload, trials []*trial) error {
	if !w.Deterministic() {
		return nil
	}
	for _, t := range trials[1:] {
		if t.Digest != trials[0].Digest {
			return fmt.Errorf("model digest %s differs from %s", t.Digest, trials[0].Digest)
		}
	}
	return nil
}

// writeSpans saves one traced trial's spans as JSON lines.
func writeSpans(dir, workload string, seed int64, spans []Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
