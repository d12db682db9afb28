package vol

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"malt/internal/compress"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/ml/linalg"
)

func newVectors(t testing.TB, ranks, dim int, typ Type, opts Options) []*Vector {
	t.Helper()
	f, err := fabric.New(fabric.Config{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	c := dstorm.NewCluster(f)
	g, err := dataflow.New(dataflow.All, ranks)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([]*Vector, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			vecs[r], errs[r] = Create(c.Node(r), "w", typ, dim, g, opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return vecs
}

func TestDenseScatterGatherAverage(t *testing.T) {
	vecs := newVectors(t, 3, 4, Dense, Options{})
	for r, v := range vecs {
		for i := range v.Data() {
			v.Data()[i] = float64(r + 1) // rank r holds r+1 everywhere
		}
		if _, err := v.Scatter(1); err != nil {
			t.Fatal(err)
		}
	}
	// Rank 0 folds updates {2,3} with local 1 → mean 2.
	st, err := vecs[0].Gather(Average)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 2 {
		t.Fatalf("Updates = %d", st.Updates)
	}
	for i, got := range vecs[0].Data() {
		if math.Abs(got-2) > 1e-12 {
			t.Fatalf("data[%d] = %v, want 2", i, got)
		}
	}
}

func TestGatherUDFs(t *testing.T) {
	mk := func() Fold {
		return Fold{
			Self:  0,
			Local: []float64{10, 20},
			Updates: []Update{
				{From: 1, Iter: 1, Data: []float64{2, 4}},
				{From: 2, Iter: 2, Data: []float64{4, 8}},
			},
		}
	}
	f := mk()
	Average(f)
	if math.Abs(f.Local[0]-16.0/3) > 1e-12 || math.Abs(f.Local[1]-32.0/3) > 1e-12 {
		t.Fatalf("Average = %v", f.Local)
	}
	f = mk()
	AverageIncoming(f)
	if f.Local[0] != 3 || f.Local[1] != 6 {
		t.Fatalf("AverageIncoming = %v", f.Local)
	}
	f = mk()
	Sum(f)
	if f.Local[0] != 16 || f.Local[1] != 32 {
		t.Fatalf("Sum = %v", f.Local)
	}
	f = mk()
	Replace(f)
	if f.Local[0] != 4 || f.Local[1] != 8 {
		t.Fatalf("Replace = %v", f.Local)
	}
	// Replace picks the freshest by iteration stamp, not arrival order.
	f = mk()
	f.Updates[0].Iter = 9
	Replace(f)
	if f.Local[0] != 2 || f.Local[1] != 4 {
		t.Fatalf("Replace by iter = %v", f.Local)
	}
	// No updates: every UDF must leave local unchanged.
	for name, udf := range map[string]UDF{"Average": Average, "AverageIncoming": AverageIncoming, "Sum": Sum, "Replace": Replace} {
		local := []float64{7, 8}
		udf(Fold{Self: 0, Local: local})
		if local[0] != 7 || local[1] != 8 {
			t.Fatalf("%s with no updates modified local: %v", name, local)
		}
	}
}

func TestAverageCanonicalOrder(t *testing.T) {
	// Three ranks hold values a, b, c. Each averages the other two with its
	// own: the results must be bit-identical across ranks because Average
	// folds in global rank order.
	vals := [][]float64{
		{0.1, 1e16, -3},
		{0.3, -1e16, 7},
		{0.7, 1, 11},
	}
	results := make([][]float64, 3)
	for self := 0; self < 3; self++ {
		local := append([]float64(nil), vals[self]...)
		var ups []Update
		for r := 0; r < 3; r++ {
			if r != self {
				ups = append(ups, Update{From: r, Data: vals[r]})
			}
		}
		Average(Fold{Self: self, Local: local, Updates: ups})
		results[self] = local
	}
	for r := 1; r < 3; r++ {
		for i := range results[0] {
			if results[0][i] != results[r][i] {
				t.Fatalf("rank %d averaged differently at %d: %v vs %v",
					r, i, results[0][i], results[r][i])
			}
		}
	}
}

func TestSparseScatterGather(t *testing.T) {
	vecs := newVectors(t, 2, 8, Sparse, Options{})
	d := vecs[0].Data()
	d[1] = 2.5
	d[6] = -1
	if _, err := vecs[0].Scatter(1); err != nil {
		t.Fatal(err)
	}
	st, err := vecs[1].Gather(Sum)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 1 {
		t.Fatalf("Updates = %d", st.Updates)
	}
	got := vecs[1].Data()
	if got[1] != 2.5 || got[6] != -1 || got[0] != 0 {
		t.Fatalf("sparse round trip = %v", got)
	}
}

func TestScatterSparseExplicitUpdate(t *testing.T) {
	vecs := newVectors(t, 2, 8, Sparse, Options{})
	up := linalg.FromMap(map[int32]float64{3: 1.5})
	if _, err := vecs[0].ScatterSparse(up, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := vecs[1].Gather(Sum); err != nil {
		t.Fatal(err)
	}
	if vecs[1].Data()[3] != 1.5 {
		t.Fatalf("data = %v", vecs[1].Data())
	}
	// Dense vectors reject ScatterSparse.
	dv := newVectors(t, 2, 4, Dense, Options{})
	if _, err := dv[0].ScatterSparse(up, 1); err == nil {
		t.Fatal("ScatterSparse on dense vector should fail")
	}
}

func TestSparseMaxNNZEnforced(t *testing.T) {
	vecs := newVectors(t, 2, 100, Sparse, Options{MaxNNZ: 2})
	up := linalg.FromMap(map[int32]float64{1: 1, 2: 2, 3: 3})
	if _, err := vecs[0].ScatterSparse(up, 1); err == nil {
		t.Fatal("update exceeding MaxNNZ should fail")
	}
	small := linalg.FromMap(map[int32]float64{1: 1})
	if _, err := vecs[0].ScatterSparse(small, 1); err != nil {
		t.Fatal(err)
	}
}

func TestGatherStatsIterRange(t *testing.T) {
	vecs := newVectors(t, 3, 2, Dense, Options{QueueLen: 8})
	if _, err := vecs[1].Scatter(5); err != nil {
		t.Fatal(err)
	}
	if _, err := vecs[2].Scatter(9); err != nil {
		t.Fatal(err)
	}
	st, err := vecs[0].Gather(Average)
	if err != nil {
		t.Fatal(err)
	}
	if st.MinIter != 5 || st.MaxIter != 9 {
		t.Fatalf("iter range = [%d,%d], want [5,9]", st.MinIter, st.MaxIter)
	}
}

func TestAsMatrixSharesStorage(t *testing.T) {
	vecs := newVectors(t, 1, 6, Dense, Options{})
	m := vecs[0].AsMatrix(2, 3)
	m.Set(1, 2, 42)
	if vecs[0].Data()[5] != 42 {
		t.Fatal("AsMatrix does not share storage")
	}
}

func TestCreateValidation(t *testing.T) {
	f, _ := fabric.New(fabric.Config{Ranks: 1})
	c := dstorm.NewCluster(f)
	g, _ := dataflow.New(dataflow.All, 1)
	if _, err := Create(c.Node(0), "w", Dense, 0, g, Options{}); err == nil {
		t.Fatal("dim=0 should fail")
	}
	if _, err := Create(c.Node(0), "w", Type(99), 4, g, Options{}); err == nil {
		t.Fatal("unknown type should fail")
	}
}

// codecVector is a bare vector for exercising encode/decodeInto without a
// cluster.
func codecVector(typ Type, dim int) *Vector {
	coords, codec := dim, compress.NoneCodec
	if typ == Sparse {
		codec = compress.TopKCodec
	}
	return &Vector{typ: typ, dim: dim, data: make([]float64, dim), encBuf: make([]byte, compress.MaxFrameBytes(codec, coords))}
}

func TestDenseCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(64)
		v := codecVector(Dense, dim)
		for i := range v.data {
			v.data[i] = r.NormFloat64()
		}
		enc, err := v.encode()
		if err != nil {
			return false
		}
		s := updScratch{dense: make([]float64, dim)}
		if err := v.decodeInto(&s, enc); err != nil {
			return false
		}
		for i := range v.data {
			if v.data[i] != s.dense[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := make(map[int32]float64)
		for i := 0; i < r.Intn(20); i++ {
			m[int32(r.Intn(1000))] = r.NormFloat64()
		}
		sv := linalg.FromMap(m)
		v := codecVector(Sparse, 1000)
		enc, err := v.encodePairs(sv)
		if err != nil {
			return false
		}
		s := updScratch{dense: make([]float64, v.dim)}
		if err := v.decodeInto(&s, enc); err != nil {
			return false
		}
		if s.sv.NNZ() != sv.NNZ() {
			return false
		}
		for i := range sv.Idx {
			if sv.Idx[i] != s.sv.Idx[i] || sv.Val[i] != s.sv.Val[i] || s.dense[sv.Idx[i]] != sv.Val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseCodecCorruptPayloads(t *testing.T) {
	v := codecVector(Sparse, 100)
	s := updScratch{dense: make([]float64, v.dim)}
	if err := v.decodeInto(&s, []byte{1, 2}); err == nil {
		t.Fatal("short payload should fail")
	}
	// Pair count far beyond the payload size.
	huge := compress.AppendPairsFrame(nil, v.dim, nil, nil)
	huge[len(huge)-4], huge[len(huge)-1] = 0xff, 0xff
	if err := v.decodeInto(&s, huge); err == nil {
		t.Fatal("oversized count should fail")
	}
	// A dense frame is not a sparse update.
	if err := v.decodeInto(&s, compress.AppendDenseFrame(nil, make([]float64, v.dim))); err == nil {
		t.Fatal("none frame on a sparse vector should fail")
	}
}

func TestVectorBarrier(t *testing.T) {
	vecs := newVectors(t, 3, 2, Dense, Options{})
	var wg sync.WaitGroup
	for _, v := range vecs {
		wg.Add(1)
		go func(v *Vector) {
			defer wg.Done()
			if err := v.Barrier(); err != nil {
				t.Errorf("barrier: %v", err)
			}
		}(v)
	}
	wg.Wait()
}

func TestHogwildStyleReplaceConverges(t *testing.T) {
	// Two ranks repeatedly scatter and replace: both end with the freshest
	// value rather than diverging.
	vecs := newVectors(t, 2, 2, Dense, Options{QueueLen: 4})
	vecs[0].Data()[0] = 1
	if _, err := vecs[0].Scatter(1); err != nil {
		t.Fatal(err)
	}
	if _, err := vecs[1].Gather(Replace); err != nil {
		t.Fatal(err)
	}
	if vecs[1].Data()[0] != 1 {
		t.Fatalf("replace did not propagate: %v", vecs[1].Data())
	}
}

func TestScatterToSubsetVector(t *testing.T) {
	vecs := newVectors(t, 3, 2, Dense, Options{})
	vecs[0].Data()[0] = 7
	if _, err := vecs[0].ScatterTo([]int{2}, 1); err != nil {
		t.Fatal(err)
	}
	st, err := vecs[1].Gather(Sum)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 0 {
		t.Fatal("rank 1 should receive nothing")
	}
	if _, err := vecs[2].Gather(Sum); err != nil {
		t.Fatal(err)
	}
	if vecs[2].Data()[0] != 7 {
		t.Fatalf("rank 2 data = %v", vecs[2].Data())
	}
}

func TestVectorAccessors(t *testing.T) {
	vecs := newVectors(t, 2, 4, Sparse, Options{QueueLen: 3})
	v := vecs[0]
	if v.Name() != "w" || v.Type() != Sparse || v.Dim() != 4 {
		t.Fatalf("accessors: %s %v %d", v.Name(), v.Type(), v.Dim())
	}
	if v.Type().String() != "sparse" || Dense.String() != "dense" {
		t.Fatal("type names wrong")
	}
	if v.Segment() == nil {
		t.Fatal("Segment() nil")
	}
}

func TestVectorPeerItersAndSetIteration(t *testing.T) {
	vecs := newVectors(t, 2, 1, Dense, Options{})
	//maltlint:allow iterskew -- single-round test pins one stamp to assert PeerIters propagation, not an SSP loop
	vecs[0].SetIteration(5)
	if _, err := vecs[0].Scatter(0); err != nil { // 0 → use stored iteration
		t.Fatal(err)
	}
	if got := vecs[1].PeerIters()[0]; got != 5 {
		t.Fatalf("PeerIters = %d, want 5", got)
	}
}

func TestVectorClose(t *testing.T) {
	vecs := newVectors(t, 2, 1, Dense, Options{})
	if err := vecs[1].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := vecs[1].Gather(Sum); err == nil {
		t.Fatal("gather on closed vector should fail")
	}
	// Scatters toward the closed vector report it as a failed peer.
	failed, err := vecs[0].Scatter(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed = %v", failed)
	}
}

func TestVectorRemovePeer(t *testing.T) {
	vecs := newVectors(t, 3, 1, Dense, Options{})
	vecs[0].RemovePeer(1)
	if _, err := vecs[0].Scatter(1); err != nil {
		t.Fatal(err)
	}
	st, err := vecs[1].Gather(Sum)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 0 {
		t.Fatal("removed peer still receives")
	}
	st, err = vecs[2].Gather(Sum)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 1 {
		t.Fatal("remaining peer should receive")
	}
}

func TestVectorGatherWeakCountsTorn(t *testing.T) {
	// Weak gathers over a chunked writer may observe torn payloads; the
	// stats must count them and the atomic gather must never see any.
	//maltlint:allow queuelen -- the depth-1 ring forces overwrites so weak gathers can observe tearing; that pressure is the property under test
	vecs := newVectors(t, 2, 8192, Dense, Options{QueueLen: 1, ChunkSize: 256})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := vecs[0].Scatter(i); err != nil {
				t.Errorf("scatter: %v", err)
				return
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	torn := 0
	for time.Now().Before(deadline) && torn == 0 {
		st, err := vecs[1].GatherWeak(Replace)
		if err != nil {
			t.Fatal(err)
		}
		torn += st.Torn
	}
	close(stop)
	wg.Wait()
	if torn == 0 {
		t.Skip("no torn read observed within the window (scheduling-dependent)")
	}
}

func TestVectorSegStats(t *testing.T) {
	vecs := newVectors(t, 2, 1, Dense, Options{QueueLen: 2})
	for i := 1; i <= 5; i++ {
		if _, err := vecs[0].Scatter(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := vecs[1].Gather(Sum); err != nil {
		t.Fatal(err)
	}
	st := vecs[1].SegStats()
	if st.Consumed != 2 || st.Overwritten != 3 {
		t.Fatalf("SegStats = %+v", st)
	}
}

// topK builds the sparse update holding the k largest-magnitude entries of
// data, as a top-k compressing trainer would before ScatterSparse.
func topK(data []float64, k int) *linalg.SparseVector {
	sv := &linalg.SparseVector{Idx: compress.SelectTopK(data, k, nil)}
	for _, ix := range sv.Idx {
		sv.Val = append(sv.Val, data[ix])
	}
	return sv
}

// TestTopKTable: a top-k selection scattered as a sparse update arrives as
// exactly the selected pairs — ties, NaN and ±Inf values included — and an
// empty selection arrives as an empty update.
func TestTopKTable(t *testing.T) {
	cases := []struct {
		name    string
		data    []float64
		k       int
		wantIdx []int32
		wantVal []float64
	}{
		{"k zero", []float64{3, 1}, 0, nil, nil},
		{"k negative", []float64{3, 1}, -2, nil, nil},
		{"k equals dim", []float64{1, -2, 3}, 3, []int32{0, 1, 2}, []float64{1, -2, 3}},
		{"k exceeds dim skips zeros", []float64{1, 0, 3}, 10, []int32{0, 2}, []float64{1, 3}},
		{"all zeros", []float64{0, 0, 0}, 2, nil, nil},
		{"ties break to lower index", []float64{2, -2, 2, -2}, 2, []int32{0, 1}, []float64{2, -2}},
		{"ties across sign", []float64{-7, 7}, 1, []int32{0}, []float64{-7}},
		{"NaN always ships", []float64{9, math.NaN(), 1}, 1, []int32{1}, []float64{math.NaN()}},
		{"Inf outranks finite", []float64{math.MaxFloat64, math.Inf(-1)}, 1, []int32{1}, []float64{math.Inf(-1)}},
		{"NaN and Inf tie by index", []float64{1, math.NaN(), math.Inf(1)}, 2, []int32{1, 2}, []float64{math.NaN(), math.Inf(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vecs := newVectors(t, 2, len(tc.data), Sparse, Options{})
			if _, err := vecs[0].ScatterSparse(topK(tc.data, tc.k), 1); err != nil {
				t.Fatal(err)
			}
			var got linalg.SparseVector
			st, err := vecs[1].Gather(func(f Fold) {
				for _, u := range f.Updates {
					//maltlint:allow foldpurity -- the sender scattered once before this gather and nothing deposits concurrently
					got = *u.Sparse.Clone()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Updates != 1 {
				t.Fatalf("gathered %d updates, want 1", st.Updates)
			}
			if got.NNZ() != len(tc.wantIdx) {
				t.Fatalf("NNZ = %d, want %d (%v / %v)", got.NNZ(), len(tc.wantIdx), got.Idx, got.Val)
			}
			for i := range tc.wantIdx {
				if got.Idx[i] != tc.wantIdx[i] {
					t.Errorf("Idx[%d] = %d, want %d", i, got.Idx[i], tc.wantIdx[i])
				}
				want := tc.wantVal[i]
				if math.IsNaN(want) {
					if !math.IsNaN(got.Val[i]) {
						t.Errorf("Val[%d] = %v, want NaN", i, got.Val[i])
					}
				} else if got.Val[i] != want {
					t.Errorf("Val[%d] = %v, want %v", i, got.Val[i], want)
				}
			}
		})
	}
}

// TestTopKCompressedScatter: a top-k sparse scatter still delivers the
// heavy coordinates to peers.
func TestTopKCompressedScatter(t *testing.T) {
	vecs := newVectors(t, 2, 100, Sparse, Options{MaxNNZ: 10})
	d := vecs[0].Data()
	for i := range d {
		d[i] = 0.01
	}
	d[7] = 5
	d[42] = -3
	if _, err := vecs[0].ScatterSparse(topK(d, 2), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := vecs[1].Gather(Sum); err != nil {
		t.Fatal(err)
	}
	got := vecs[1].Data()
	if got[7] != 5 || got[42] != -3 {
		t.Fatalf("heavy coordinates lost: %v %v", got[7], got[42])
	}
	if got[0] != 0 {
		t.Fatal("light coordinate should have been dropped")
	}
}
