package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{10, 1, 4, 3, 2, 5, 6, 7, 8, 9} // 1..10, unsorted
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}, {25, 3.25},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestBeyondOKNeedsTenSamplesPastTheTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, {100, 90, true}, {999, 99, false}, {1000, 99, true}, {20, 50, true}, {19, 50, false},
	} {
		if got := beyondOK(c.n, c.p); got != c.want {
			t.Errorf("beyondOK(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := tail90(make([]float64, 99)); !math.IsNaN(got) {
		t.Errorf("p90 of 99 samples = %v, want it refused", got)
	}
	if got := tail90(nil); got != 0 {
		t.Errorf("p90 of a layer off the path = %v, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2.5, 0.5, 9, 4, 4, 7, 1}, 1, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relativeIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("relativeIQR = %v, want 1", got)
	}
}

func TestTimeToLossInterpolatesTheCrossing(t *testing.T) {
	curve := []curvePoint{{0, 1}, {1, 0.9}, {2, 0.7}, {3, 0.8}, {4, 0.5}}
	if got := timeToLoss(curve, 0.8); !near(got, 1.5) {
		t.Errorf("crossing 0.8 at %v, want 1.5", got)
	}
	if got := timeToLoss(curve, 1.0); got != 0 {
		t.Errorf("crossing the starting loss at %v, want 0", got)
	}
	if got := timeToLoss(curve, 0.4); !math.IsNaN(got) {
		t.Errorf("unreached target gave %v, want NaN", got)
	}
}
