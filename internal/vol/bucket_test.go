package vol

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"malt/internal/compress"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
)

func TestBucketGeometry(t *testing.T) {
	cases := []struct {
		dim, bucketBytes, coords, buckets int
	}{
		{128, 8, 1, 128},       // one coordinate per fragment
		{128, 256, 32, 4},      // even split
		{129, 256, 32, 5},      // ragged tail bucket of one coordinate
		{128, 4, 1, 128},       // sub-coordinate cap floors at one coordinate
		{128, 1 << 20, 128, 1}, // cap above the vector: one bucket
	}
	for _, c := range cases {
		bs := newBucketState(c.dim, c.bucketBytes)
		if bs.coords != c.coords || bs.buckets != c.buckets {
			t.Fatalf("newBucketState(%d, %d) = coords %d buckets %d, want %d/%d",
				c.dim, c.bucketBytes, bs.coords, bs.buckets, c.coords, c.buckets)
		}
		covered := 0
		for b := 0; b < bs.buckets; b++ {
			lo, hi := bs.bucketRange(c.dim, b)
			if lo != covered || hi <= lo || hi > c.dim {
				t.Fatalf("bucketRange(%d, %d) = [%d,%d) after covering %d", c.dim, b, lo, hi, covered)
			}
			covered = hi
		}
		if covered != c.dim {
			t.Fatalf("buckets cover %d of %d coords", covered, c.dim)
		}
	}
}

func TestBucketCreateValidation(t *testing.T) {
	f, err := fabric.New(fabric.Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := dstorm.NewCluster(f)
	g, err := dataflow.New(dataflow.All, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create(c.Node(0), "s", Sparse, 16, g, Options{BucketBytes: 64}); err == nil {
		t.Fatal("BucketBytes on a Sparse vector must be rejected")
	}
	v, err := Create(c.Node(0), "d", Dense, 16, g, Options{BucketBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if !v.Bucketed() || v.Buckets() != 4 {
		t.Fatalf("Bucketed=%v Buckets=%d, want true/4", v.Bucketed(), v.Buckets())
	}
	if lo, hi := v.BucketRange(3); lo != 12 || hi != 16 {
		t.Fatalf("BucketRange(3) = [%d,%d)", lo, hi)
	}
	if _, err := v.ScatterBucket(4, nil, 1); err == nil {
		t.Fatal("out-of-range bucket must error")
	}
	if _, err := v.ScatterBucket(-1, nil, 1); err == nil {
		t.Fatal("negative bucket must error")
	}
}

// fillBucketTest writes the deterministic per-(rank, round) gradient used by
// the determinism sweep. Reciprocals give full mantissas, so a single
// out-of-order addition anywhere shows up in the bitwise comparison.
func fillBucketTest(d []float64, rank, round int) {
	for i := range d {
		d[i] = 1 / float64(i+31*rank+7*round)
	}
}

// runBucketSchedule runs rounds of lockstep all-to-all scatter/gather over
// a fresh cluster and returns every rank's final local value. workers > 0
// enables the parallel gather engine on every node.
func runBucketSchedule(t *testing.T, ranks, dim, rounds, bucketBytes, workers int) [][]float64 {
	t.Helper()
	vecs := newVectors(t, ranks, dim, Dense, Options{QueueLen: 2, BucketBytes: bucketBytes})
	defer func() {
		for _, v := range vecs {
			if err := v.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	}()
	if workers > 0 {
		for _, v := range vecs {
			v.Segment().Node().EnableParallelGather(workers)
			defer v.Segment().Node().DisableParallelGather()
		}
	}
	for round := 1; round <= rounds; round++ {
		for r, v := range vecs {
			fillBucketTest(v.Data(), r, round)
			if failed, err := v.Scatter(uint64(round)); err != nil || len(failed) != 0 {
				t.Fatalf("rank %d round %d scatter: failed=%v err=%v", r, round, failed, err)
			}
		}
		for r, v := range vecs {
			st, err := v.Gather(Average)
			if err != nil {
				t.Fatalf("rank %d round %d gather: %v", r, round, err)
			}
			if st.Updates != ranks-1 {
				t.Fatalf("rank %d round %d folded %d updates, want %d", r, round, st.Updates, ranks-1)
			}
		}
	}
	out := make([][]float64, ranks)
	for r, v := range vecs {
		out[r] = append([]float64(nil), v.Data()...)
		bp := v.BucketPerf()
		if bucketBytes > 0 {
			wantFrags := uint64(rounds * v.Buckets())
			if bp.FragmentsSent != wantFrags {
				t.Fatalf("rank %d sent %d fragments, want %d", r, bp.FragmentsSent, wantFrags)
			}
			if bp.Assembled != uint64(rounds*(ranks-1)) || bp.Evicted != 0 || bp.Duplicates != 0 {
				t.Fatalf("rank %d perf %+v, want %d assembled and no evictions/duplicates",
					r, bp, rounds*(ranks-1))
			}
		} else if bp.FragmentsSent != 0 {
			t.Fatalf("unbucketed rank %d counted %d fragments", r, bp.FragmentsSent)
		}
	}
	return out
}

// TestBucketDeterminismSweep is the bucketing determinism matrix:
// bucketBytes (including a ragged tail and a one-coordinate extreme) ×
// gather workers, every cell bitwise-equal to the unbucketed serial path.
// Reassembly before folding means the fold input multiset and order are
// identical, so any float deviation is a bug.
func TestBucketDeterminismSweep(t *testing.T) {
	const (
		ranks  = 4
		dim    = 129 // odd: last bucket is ragged for most caps
		rounds = 3
	)
	ref := runBucketSchedule(t, ranks, dim, rounds, 0, 0)
	for _, bucketBytes := range []int{8, 64, 256, 1024, 8 * dim} {
		for _, workers := range []int{0, 2, 8} {
			t.Run(fmt.Sprintf("bucketBytes=%d/workers=%d", bucketBytes, workers), func(t *testing.T) {
				got := runBucketSchedule(t, ranks, dim, rounds, bucketBytes, workers)
				for r := range ref {
					for i := range ref[r] {
						if math.Float64bits(ref[r][i]) != math.Float64bits(got[r][i]) {
							t.Fatalf("rank %d coord %d: bucketed %x != unbucketed %x",
								r, i, math.Float64bits(got[r][i]), math.Float64bits(ref[r][i]))
						}
					}
				}
			})
		}
	}
}

// TestBucketGatherLatestFreshestPerSender checks post-assembly Latest
// semantics: two logical updates scattered back to back, only the second
// folds, and the superseded complete assembly is recycled without folding.
func TestBucketGatherLatestFreshestPerSender(t *testing.T) {
	vecs := newVectors(t, 2, 32, Dense, Options{QueueLen: 4, BucketBytes: 64})
	defer vecs[0].Close()
	defer vecs[1].Close()
	for i := range vecs[1].Data() {
		vecs[1].Data()[i] = 1
	}
	if _, err := vecs[1].Scatter(1); err != nil {
		t.Fatal(err)
	}
	for i := range vecs[1].Data() {
		vecs[1].Data()[i] = 2
	}
	if _, err := vecs[1].Scatter(2); err != nil {
		t.Fatal(err)
	}
	st, err := vecs[0].GatherLatest(Replace)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 1 || st.MinIter != 2 {
		t.Fatalf("GatherLatest folded %d updates (minIter %d), want 1 @ iter 2", st.Updates, st.MinIter)
	}
	for i, got := range vecs[0].Data() {
		if got != 2 {
			t.Fatalf("data[%d] = %v, want 2 (freshest update)", i, got)
		}
	}
	if bp := vecs[0].BucketPerf(); bp.Assembled != 2 {
		t.Fatalf("assembled %d logical updates, want 2", bp.Assembled)
	}
}

// TestBucketQueueLenIsPerLogicalUpdate: the receive ring is per fragment,
// so Create scales the requested (logical) depth by the bucket count — a
// QueueLen-2 bucketed vector must hold two whole scatters without loss.
func TestBucketQueueLenIsPerLogicalUpdate(t *testing.T) {
	vecs := newVectors(t, 2, 64, Dense, Options{QueueLen: 2, BucketBytes: 128})
	defer vecs[0].Close()
	defer vecs[1].Close()
	for round := 1; round <= 2; round++ {
		fillBucketTest(vecs[1].Data(), 1, round)
		if _, err := vecs[1].Scatter(uint64(round)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := vecs[0].Gather(Sum)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 2 {
		t.Fatalf("folded %d updates, want both queued scatters", st.Updates)
	}
	if bp := vecs[0].BucketPerf(); bp.Assembled != 2 || bp.Evicted != 0 {
		t.Fatalf("perf %+v, want 2 assembled / 0 evicted", bp)
	}
}

// TestBucketBarrierDrainsAllBuckets runs the BSP contract under the send
// pipeline with flush thresholds set so high that ONLY the barrier's drain
// can deliver the enqueued fragments: after Barrier, every peer's gather
// must reassemble every sender's complete update, every round. All ranks
// run concurrently, so -race covers the fragment pipeline handoff.
func TestBucketBarrierDrainsAllBuckets(t *testing.T) {
	const (
		ranks  = 3
		dim    = 257
		rounds = 5
	)
	vecs := newVectors(t, ranks, dim, Dense, Options{QueueLen: 2, BucketBytes: 8 * 32})
	for _, v := range vecs {
		v.Segment().Node().EnablePipeline(dstorm.PipelineConfig{
			MaxBatchCount: 1 << 20,
			MaxBatchBytes: 1 << 30,
			MaxDelay:      time.Minute,
		})
	}
	defer func() {
		for _, v := range vecs {
			v.Segment().Node().DisablePipeline()
			if err := v.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for r := range vecs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			v := vecs[r]
			for round := 1; round <= rounds; round++ {
				fillBucketTest(v.Data(), r, round)
				if _, err := v.Scatter(uint64(round)); err != nil {
					errs[r] = fmt.Errorf("round %d scatter: %w", round, err)
					return
				}
				if err := v.Barrier(); err != nil {
					errs[r] = fmt.Errorf("round %d barrier: %w", round, err)
					return
				}
				st, err := v.Gather(Average)
				if err != nil {
					errs[r] = fmt.Errorf("round %d gather: %w", round, err)
					return
				}
				if st.Updates != ranks-1 {
					errs[r] = fmt.Errorf("round %d: folded %d updates after barrier, want %d (undrained buckets)",
						round, st.Updates, ranks-1)
					return
				}
				// Second barrier so no rank scatters round+1 into a peer
				// that has not yet gathered this round.
				if err := v.Barrier(); err != nil {
					errs[r] = fmt.Errorf("round %d commit barrier: %w", round, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, v := range vecs {
		if bp := v.BucketPerf(); bp.Evicted != 0 || bp.Duplicates != 0 ||
			bp.Assembled != uint64(rounds*(ranks-1)) {
			t.Fatalf("rank %d perf %+v, want %d assembled and no evictions/duplicates",
				r, bp, rounds*(ranks-1))
		}
	}
}

// TestBucketBlackoutMidUpdate is the chaos leg: a link goes dark halfway
// through a logical update's fragments. The half-delivered update must
// never fold (no partial state reaches the model), and once the link heals
// the next complete update must fold exactly once, evicting the stale
// half-assembly.
func TestBucketBlackoutMidUpdate(t *testing.T) {
	f, err := fabric.New(fabric.Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := dstorm.NewCluster(f)
	// One bounded attempt per write: a blackout write fails immediately
	// instead of retrying into the healed window, keeping fragment fates
	// deterministic.
	c.Node(1).SetRetryPolicy(dstorm.RetryPolicy{MaxAttempts: 1})
	g, err := dataflow.New(dataflow.All, 2)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([]*Vector, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			vecs[r], errs[r] = Create(c.Node(r), "w", Dense, 64, g, Options{QueueLen: 2, BucketBytes: 8 * 16})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer vecs[0].Close()
	defer vecs[1].Close()
	sender, receiver := vecs[1], vecs[0]

	// Round 1: buckets 0-1 arrive, then the link goes dark mid-update.
	fillBucketTest(sender.Data(), 1, 1)
	for b := 0; b < 4; b++ {
		if b == 2 {
			if err := f.SetLinkFault(1, 0, fabric.LinkFault{Blackout: true}); err != nil {
				t.Fatal(err)
			}
		}
		failed, err := sender.ScatterBucket(b, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if b >= 2 && len(failed) != 1 {
			t.Fatalf("bucket %d: blacked-out write reported failed=%v", b, failed)
		}
	}
	before := append([]float64(nil), receiver.Data()...)
	st, err := receiver.Gather(Replace)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 0 {
		t.Fatalf("folded %d updates from a half-delivered scatter, want 0", st.Updates)
	}
	for i := range before {
		if receiver.Data()[i] != before[i] {
			t.Fatalf("coord %d mutated by a partial update", i)
		}
	}

	// Heal; the next complete update folds exactly once and evicts the
	// stale half-assembly.
	if err := f.SetLinkFault(1, 0, fabric.LinkFault{}); err != nil {
		t.Fatal(err)
	}
	fillBucketTest(sender.Data(), 1, 2)
	want := append([]float64(nil), sender.Data()...)
	if failed, err := sender.Scatter(2); err != nil || len(failed) != 0 {
		t.Fatalf("healed scatter: failed=%v err=%v", failed, err)
	}
	st, err = receiver.Gather(Replace)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 1 {
		t.Fatalf("folded %d updates after heal, want exactly 1", st.Updates)
	}
	for i := range want {
		if math.Float64bits(receiver.Data()[i]) != math.Float64bits(want[i]) {
			t.Fatalf("coord %d: %v != scattered %v", i, receiver.Data()[i], want[i])
		}
	}
	bp := receiver.BucketPerf()
	if bp.Assembled != 1 || bp.Evicted != 1 {
		t.Fatalf("perf %+v, want 1 assembled / 1 evicted", bp)
	}

	// A third gather must find nothing: the folded update is consumed and
	// the evicted one is gone, not resurrected.
	st, err = receiver.Gather(Replace)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 0 {
		t.Fatalf("re-gather folded %d updates, want 0 (no double fold)", st.Updates)
	}
}

// TestBucketDuplicateFragmentAbsorbed feeds the reassembly state machine a
// duplicated fragment (a delivered-but-unacknowledged write being retried):
// the bucket must count once and the update must still fold exactly once.
func TestBucketDuplicateFragmentAbsorbed(t *testing.T) {
	const dim = 8
	bs := newBucketState(dim, 8*4) // 2 buckets of 4 coords
	frag := func(id uint64, lo int) []byte {
		data := []float64{1, 2, 3, 4}
		return compress.AppendDenseFrame(bs.appendHeader(nil, id, lo, lo+4), data)
	}
	route := func(payload []byte) *bucketAsm {
		h, err := bs.decodeFragHeader(dim, payload)
		if err != nil {
			t.Fatal(err)
		}
		return bs.routeFragment(dim, 1, 7, h)
	}
	if route(frag(1, 0)) == nil {
		t.Fatal("first fragment must route to an assembly")
	}
	if route(frag(1, 0)) != nil {
		t.Fatal("duplicate fragment must not route a second time")
	}
	if bs.perf.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", bs.perf.Duplicates)
	}
	if a := bs.completeAsm(1); a != nil {
		t.Fatal("update completed with a bucket still missing")
	}
	if route(frag(1, 4)) == nil {
		t.Fatal("second bucket must route to the assembly")
	}
	a := bs.completeAsm(1)
	if a == nil {
		t.Fatal("update must complete after both buckets")
	}
	if again := bs.completeAsm(1); again != nil {
		t.Fatal("completed update must detach (no double fold)")
	}
	if bs.perf.Assembled != 1 {
		t.Fatalf("Assembled = %d, want 1", bs.perf.Assembled)
	}
}
