package main

import (
	"fmt"
	"math"
	"runtime"
)

// metricDecl is one metric the benchmark prints, with its unit.
type metricDecl struct {
	Name, Unit string
}

// endToEnd are the metrics of the untraced run, as a user of the trainer
// sees them. Failed operations are not a metric here: the result line
// carries them as "failed" out of "attempted".
var endToEnd = []metricDecl{
	{"examples_per_s", "1/s"},
	{"step_ms_p50", "ms"},
	{"step_ms_p90", "ms"},
	{"time_to_loss_s", "s"},
	{"speedup_vs_serial", "x"},
	{"efficiency", "ratio"},
	{"final_loss", "loss"},
	{"test_accuracy", "fraction"},
	{"wire_bytes_per_example", "B"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of the traced run, one or more per layer a
// training step crosses. A layer a workload does not cross reads 0.
var perLayer = []metricDecl{
	{"svm.step_ns_per_example", "ns"},
	{"svm.eval_s", "s"},
	{"data.generate_s", "s"},
	{"vol.scatter_self_ns_p50", "ns"},
	{"vol.gather_self_ns_p50", "ns"},
	{"vol.fold_ns_p50", "ns"},
	{"vol.bytes_over_dense", "ratio"},
	{"vol.staleness_p90", "iters"},
	{"vol.updates_per_gather", "count"},
	{"compress.ratio", "ratio"},
	{"compress.residual_l1", "l1"},
	{"dstorm.deposit_ns_p50", "ns"},
	{"dstorm.deposit_bytes", "B"},
	{"dstorm.overwritten_frac", "fraction"},
	{"dstorm.writes_saved_frac", "fraction"},
	{"dstorm.retries", "count"},
	{"fabric.write_self_ns_p50", "ns"},
	{"fabric.writes_per_step", "count"},
	{"stream.write_ns_p50", "ns"},
	{"stream.write_ns_p90", "ns"},
	{"stream.window_stalls", "count"},
	{"consistency.advance_ns_p50", "ns"},
	{"consistency.advance_ns_p90", "ns"},
	{"trace.examples_per_s_untraced", "1/s"},
	{"trace.examples_per_s_traced", "1/s"},
	{"trace.overhead_frac", "fraction"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet fills values for a declared list, refusing undeclared names.
type metricSet struct {
	decls  []metricDecl
	values map[string]metricValue
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, values: make(map[string]metricValue, len(decls))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.decls {
		if d.Name == name {
			m.values[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is not declared", name))
}

// complete checks that every declared metric got a finite value.
func (m *metricSet) complete() error {
	for _, d := range m.decls {
		v, ok := m.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v.Value)
		}
	}
	return nil
}

func examplesPerS(t *trial) float64 { return float64(t.Examples) / t.Region.Seconds() }

// endToEndMetrics summarizes the untraced trials of one run.
func endToEndMetrics(trials []*trial, target float64) (*metricSet, error) {
	m := newMetricSet(endToEnd)
	var eps, ttl, perExample, loss, acc, wire, setup, heap, p50, p90 []float64
	for _, t := range trials {
		eps = append(eps, examplesPerS(t))
		ttl = append(ttl, timeToLoss(t.Curve, target))
		perExample = append(perExample, t.Serial.Elapsed.Seconds()/float64(t.Serial.Examples))
		loss = append(loss, t.Loss)
		acc = append(acc, t.Accuracy)
		wire = append(wire, float64(t.Bytes)/float64(t.Examples))
		setup = append(setup, t.Setup.Seconds())
		heap = append(heap, float64(t.PeakHeap)/(1<<20))
		if !beyondOK(len(t.Steps), 90) {
			return nil, fmt.Errorf("%d batch timings leave fewer than ten beyond p90", len(t.Steps))
		}
		p50 = append(p50, percentile(t.Steps, 50))
		p90 = append(p90, percentile(t.Steps, 90))
	}
	// The serial baseline: its time to the target is the examples it
	// needs times its median cost per example; the ideal distributed time
	// spreads the same per-example cost over min(GOMAXPROCS, ranks) cores.
	serialPerExample := median(perExample)
	serialTTL := timeToLoss(trials[0].Serial.Curve, target) * serialPerExample
	ideal := math.Min(float64(runtime.GOMAXPROCS(0)), ranks)
	m.set("examples_per_s", median(eps))
	// Batch-time percentiles are taken per trial and their median kept, so
	// one trial disturbed by the host does not move the run's tail.
	m.set("step_ms_p50", median(p50))
	m.set("step_ms_p90", median(p90))
	m.set("time_to_loss_s", median(ttl))
	m.set("speedup_vs_serial", serialTTL/median(ttl))
	m.set("efficiency", serialPerExample*median(eps)/ideal)
	m.set("final_loss", median(loss))
	m.set("test_accuracy", median(acc))
	m.set("wire_bytes_per_example", median(wire))
	m.set("setup_s", median(setup))
	m.set("peak_heap_mb", median(heap))
	return m, m.complete()
}

// spanStats pools span durations and self times by name over traced
// trials.
type spanStats struct {
	dur, self map[string][]float64
	bytes     map[string][]float64
	steps     int // rank-batches traced
}

func collectSpans(trials []*trial) *spanStats {
	s := &spanStats{dur: map[string][]float64{}, self: map[string][]float64{}, bytes: map[string][]float64{}}
	for _, t := range trials {
		self := selfTimes(t.Spans)
		for i, sp := range t.Spans {
			if sp.End == 0 {
				continue
			}
			s.dur[sp.Name] = append(s.dur[sp.Name], float64(sp.Duration()))
			s.self[sp.Name] = append(s.self[sp.Name], float64(self[i]))
			s.bytes[sp.Name] = append(s.bytes[sp.Name], float64(sp.Bytes))
			if sp.Name == "step" {
				s.steps++
			}
		}
	}
	return s
}

// orZero maps the NaN of an empty sample to 0: the layer is not on this
// workload's path.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// tail90 is the p90 of xs: 0 for an empty sample (the layer is not on
// the path), NaN — refused by complete — when fewer than ten samples lie
// beyond it.
func tail90(xs []float64) float64 {
	switch {
	case len(xs) == 0:
		return 0
	case !beyondOK(len(xs), 90):
		return math.NaN()
	}
	return percentile(xs, 90)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayerMetrics summarizes the traced trials of one run; plain are the
// untraced trials run alongside, for the tracing overhead.
func perLayerMetrics(w workload, traced, plain []*trial) (*metricSet, error) {
	m := newMetricSet(perLayer)
	s := collectSpans(traced)
	var perEx, eval, gen, staleness, updates, tracedEPS, plainEPS []float64
	var overwritten, consumed, pre, post, saved, records, retries, stalls, writes uint64
	var residual, dense, bytes float64
	for _, t := range traced {
		for _, d := range spansNamed(t.Spans, "svm.train") {
			perEx = append(perEx, d/cb)
		}
		eval = append(eval, t.Eval.Seconds())
		gen = append(gen, t.Generate.Seconds())
		lc := t.Layers
		staleness = append(staleness, lc.Staleness...)
		updates = append(updates, lc.Updates...)
		overwritten += lc.Overwritten
		consumed += lc.Consumed
		pre += lc.CompressPre
		post += lc.CompressPost
		residual += lc.ResidualL1
		saved += lc.WritesSaved
		records += lc.Records
		retries += lc.Retries
		stalls += lc.WindowStall
		writes += lc.ShimWrites
		dense += float64(t.Scatters) * (ranks - 1) * 8 * float64(t.Dim)
		bytes += float64(t.Bytes)
		tracedEPS = append(tracedEPS, examplesPerS(t))
	}
	for _, t := range plain {
		plainEPS = append(plainEPS, examplesPerS(t))
	}
	writeSelf := append(append([]float64(nil), s.self["fabric.write"]...), s.self["stream.write"]...)
	m.set("svm.step_ns_per_example", orZero(median(perEx)))
	m.set("svm.eval_s", median(eval))
	m.set("data.generate_s", median(gen))
	m.set("vol.scatter_self_ns_p50", orZero(median(s.self["vol.scatter"])))
	m.set("vol.gather_self_ns_p50", orZero(median(s.self["vol.gather"])))
	m.set("vol.fold_ns_p50", orZero(median(s.dur["vol.fold"])))
	m.set("vol.bytes_over_dense", ratio(bytes, dense))
	m.set("vol.staleness_p90", tail90(staleness))
	m.set("vol.updates_per_gather", orZero(mean(updates)))
	m.set("compress.ratio", ratio(float64(post), float64(pre)))
	m.set("compress.residual_l1", residual/float64(len(traced)))
	m.set("dstorm.deposit_ns_p50", orZero(median(s.dur["dstorm.deposit"])))
	m.set("dstorm.deposit_bytes", orZero(mean(s.bytes["dstorm.deposit"])))
	m.set("dstorm.overwritten_frac", ratio(float64(overwritten), float64(consumed)))
	m.set("dstorm.writes_saved_frac", ratio(float64(saved), float64(records)))
	m.set("dstorm.retries", float64(retries)/float64(len(traced)))
	m.set("fabric.write_self_ns_p50", orZero(median(writeSelf)))
	m.set("fabric.writes_per_step", ratio(float64(writes), float64(s.steps)))
	m.set("stream.write_ns_p50", orZero(percentile(s.dur["stream.write"], 50)))
	m.set("stream.write_ns_p90", tail90(s.dur["stream.write"]))
	m.set("stream.window_stalls", float64(stalls)/float64(len(traced)))
	m.set("consistency.advance_ns_p50", orZero(percentile(s.dur["consistency.advance"], 50)))
	m.set("consistency.advance_ns_p90", tail90(s.dur["consistency.advance"]))
	m.set("trace.examples_per_s_untraced", median(plainEPS))
	m.set("trace.examples_per_s_traced", median(tracedEPS))
	m.set("trace.overhead_frac", 1-median(tracedEPS)/median(plainEPS))
	return m, m.complete()
}

// spansNamed returns the durations of the closed spans called name.
func spansNamed(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End != 0 {
			out = append(out, float64(s.Duration()))
		}
	}
	return out
}
