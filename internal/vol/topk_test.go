package vol

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"malt/internal/compress"
)

// Top-k gradient compression through a Vector: the paper's traffic filter
// (§6.2) as a "topk" codec on the scatter path. Each test ships rank 0's
// value to rank 1 and reads what rank 1 folded, so selection, error
// feedback and the wire frames are checked together.

// newTopKPair builds a two-rank Dense vector pair compressed with the topk
// codec at ratio.
func newTopKPair(t testing.TB, dim int, ratio float64) []*Vector {
	t.Helper()
	return newVectors(t, 2, dim, Dense, Options{Compress: compress.Options{Codec: "topk", Ratio: ratio}})
}

// shipTopK scatters data from rank 0 to rank 1 and returns the update
// rank 1 received (its own value is zeroed first, so Sum yields exactly
// the decoded frame).
func shipTopK(t testing.TB, vecs []*Vector, data []float64, iter uint64) []float64 {
	t.Helper()
	copy(vecs[0].Data(), data)
	recv := vecs[1].Data()
	for i := range recv {
		recv[i] = 0
	}
	if _, err := vecs[0].ScatterTo([]int{1}, iter); err != nil {
		t.Fatal(err)
	}
	if _, err := vecs[1].Gather(Sum); err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), vecs[1].Data()...)
}

func TestTopKSelectsLargestMagnitude(t *testing.T) {
	vecs := newTopKPair(t, 6, 0.3)
	got := shipTopK(t, vecs, []float64{0.1, -5, 0, 2, -0.5, 3}, 1)
	// Largest magnitudes are -5 (idx 1) and 3 (idx 5): magnitude, not sign.
	want := []float64{0, -5, 0, 0, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("received %v, want %v", got, want)
		}
	}
	if p := vecs[0].CompressPerf(); p.BytesPost >= p.BytesPre {
		t.Fatalf("2-of-6 frame not smaller than dense: %+v", p)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	t.Run("ratio one ships every nonzero exactly", func(t *testing.T) {
		vecs := newTopKPair(t, 3, 1)
		data := []float64{1, 0, -2}
		got := shipTopK(t, vecs, data, 1)
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("received %v, want %v", got, data)
			}
		}
		for i, r := range vecs[0].comp.st.Residual(1) {
			if r != 0 {
				t.Fatalf("residual[%d] = %v after a lossless ship", i, r)
			}
		}
	})
	t.Run("all zeros ships nothing", func(t *testing.T) {
		vecs := newTopKPair(t, 4, 0.5)
		got := shipTopK(t, vecs, make([]float64, 4), 1)
		for i, v := range got {
			if v != 0 {
				t.Fatalf("received[%d] = %v from an all-zero update", i, v)
			}
		}
		if p := vecs[0].CompressPerf(); p.ResidualNormMicro != 0 {
			t.Fatalf("all-zero update left residual mass %d", p.ResidualNormMicro)
		}
	})
	t.Run("tiny ratio still ships one coordinate", func(t *testing.T) {
		vecs := newTopKPair(t, 5, 1e-9)
		got := shipTopK(t, vecs, []float64{1, 2, -9, 3, 4}, 1)
		want := []float64{0, 0, -9, 0, 0}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("received %v, want %v", got, want)
			}
		}
	})
}

// TestTopKDeterministicOnTies: selection is a pure function of the input
// even when every magnitude ties — ties break to the lower index, so fresh
// vectors always ship the same (lowest) coordinates.
func TestTopKDeterministicOnTies(t *testing.T) {
	const dim, k = 200, 50
	data := make([]float64, dim)
	for i := range data {
		data[i] = 1.5 // everything ties
	}
	for trial := 0; trial < 5; trial++ {
		got := shipTopK(t, newTopKPair(t, dim, float64(k)/dim), data, 1)
		for i, v := range got {
			want := 0.0
			if i < k {
				want = 1.5
			}
			if v != want {
				t.Fatalf("trial %d: received[%d] = %v, want %v", trial, i, v, want)
			}
		}
	}
}

// TestTopKResidualErrorFeedback: the dropped entries stay in the link's
// residual, shipped + residual reconstructs the update exactly, and the
// next scatter ships the residual so compression drops nothing for good.
func TestTopKResidualErrorFeedback(t *testing.T) {
	vecs := newTopKPair(t, 4, 0.5)
	data := []float64{4, 1, -3, 0.5}
	got := shipTopK(t, vecs, data, 1)
	res := vecs[0].comp.st.Residual(1)
	if want := []float64{0, 1, 0, 0.5}; !equalF64(res, want) {
		t.Fatalf("residual = %v, want %v", res, want)
	}
	for i := range data {
		if got[i]+res[i] != data[i] {
			t.Fatalf("shipped %v + residual %v != update %v", got, res, data)
		}
	}
	// A zero update next round: error feedback ships the deferred mass.
	got = shipTopK(t, vecs, make([]float64, 4), 2)
	if want := []float64{0, 1, 0, 0.5}; !equalF64(got, want) {
		t.Fatalf("second round received %v, want the residual %v", got, want)
	}
	if p := vecs[0].CompressPerf(); p.ResidualNormMicro != 0 {
		t.Fatalf("residual mass %d left after it shipped", p.ResidualNormMicro)
	}
}

// Property: the shipped set dominates what stays behind (min shipped
// magnitude >= max residual magnitude), at most k coordinates ship, and
// shipped + residual is lossless.
func TestTopKProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		k := 1 + rng.Intn(n)
		data := make([]float64, n)
		for i := range data {
			if rng.Float64() < 0.7 {
				data[i] = rng.NormFloat64()
			}
		}
		// (k-0.5)/n keeps ceil(ratio·n) == k clear of rounding.
		vecs := newTopKPair(t, n, (float64(k)-0.5)/float64(n))
		got := shipTopK(t, vecs, data, 1)
		res := vecs[0].comp.st.Residual(1)
		shipped := 0
		minSel := math.Inf(1)
		for i, v := range got {
			if got[i]+res[i] != data[i] {
				return false
			}
			if v != 0 {
				shipped++
				minSel = math.Min(minSel, math.Abs(v))
			}
		}
		if shipped > k {
			return false
		}
		for _, v := range res {
			if math.Abs(v) > minSel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
