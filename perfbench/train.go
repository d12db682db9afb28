package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"malt/internal/compress"
	"malt/internal/consistency"
	"malt/internal/core"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/fabric/tcpnet"
	"malt/internal/ml/svm"
	"malt/internal/vol"
)

const (
	// ranks is the replica count of every workload: one per core of the
	// two-core host the benchmark was written on, so replicas do not
	// time-share a core.
	ranks = 2
	// cb is the communication batch in examples.
	cb = 50
	// modelSyncEvery interleaves a whole-model averaging round every this
	// many batches, as bench.RunSVM's gradavg loop does by default.
	modelSyncEvery = 10
)

// workload is one fixed training configuration.
type workload struct {
	Name string

	Shape data.Shape
	// Train and Test override the shape's example counts when positive.
	Train, Test int
	Lambda      float64
	Eta0        float64

	Sparse      bool
	Sync        consistency.Model
	TCP         bool
	Pipeline    bool
	BucketBytes int
	Compress    compress.Options

	// Steps is the number of communication batches each rank trains in
	// one trial; SnapEvery is the batches between rank-0 model copies.
	Steps, SnapEvery int
	// SerialExamples is how many examples the serial baseline trains, and
	// SerialSnapEvery the examples between its model copies.
	SerialExamples, SerialSnapEvery int
	// TargetFrac places the test loss time_to_loss_s races to: this
	// fraction of the way from the untrained model's loss to the loss the
	// serial baseline reaches after SerialExamples examples on the same
	// data. Like the paper, every run races to a loss the single-rank
	// baseline attains; deriving it per dataset keeps the target on the
	// steep part of the curve whatever the seed.
	TargetFrac float64
	// LossCeiling, when positive, is the final test loss a trial must stay
	// under; it checks runs whose model is not bitwise reproducible (ASP).
	LossCeiling float64
}

// Deterministic reports whether the final model is a pure function of the
// seed, so its digest must repeat exactly.
func (w workload) Deterministic() bool { return w.Sync == consistency.BSP }

func (w workload) spec(seed int64) (data.ClassificationSpec, error) {
	spec, err := w.Shape.Spec(1)
	if err != nil {
		return spec, err
	}
	if w.Train > 0 {
		spec.Train = w.Train
	}
	if w.Test > 0 {
		spec.Test = w.Test
	}
	spec.Seed = seed
	return spec, nil
}

func (w workload) svmConfig(dim int) svm.Config {
	return svm.Config{Dim: dim, Lambda: w.Lambda, Eta0: w.Eta0}
}

// snapshot is one rank-0 model copy taken inside the timed region.
type snapshot struct {
	at time.Duration // since the start of the timed region
	w  []float64
}

// trial is everything one set-up-and-train cycle measured.
type trial struct {
	Setup    time.Duration // data generation, cluster build, rendezvous
	Generate time.Duration
	Region   time.Duration // first batch to the last rank's last batch
	Eval     time.Duration

	Examples    int            // trained across all ranks
	Steps       []float64      // rank-0 batch wall times, ms
	Curve       []curvePoint   // test loss of the snapshots, from t=0
	Digest      string         // of rank 0's final model
	Loss        float64        // test loss of that model
	Accuracy    float64        // test accuracy of that model
	PeakHeap    uint64         // bytes, less the snapshot store
	Writes      uint64         // fabric writes attempted
	Failed      uint64         // failed writes plus rank errors
	Bytes       uint64         // transport payload bytes
	Scatters    int            // logical scatters, all ranks
	Overwritten uint64         // updates lost to ring overwrites, all ranks
	Dim         int            // model dimension
	Serial      serialRun      // the baseline repetition paired with this trial
	Layers      *layerCounters // per-layer counters (traced trials)
	Spans       []Span         // traced trials only
}

type curvePoint struct {
	T    float64 // seconds; examples for the serial baseline's curve
	Loss float64
}

// layerCounters are the counts the program exposes per layer, read after
// a traced trial.
type layerCounters struct {
	Staleness                 []float64 // own iteration minus the oldest update folded
	Updates                   []float64 // updates folded per gather
	Overwritten               uint64
	Consumed                  uint64
	CompressPre, CompressPost uint64
	ResidualL1                float64
	WritesSaved               uint64
	Records                   uint64 // records that needed a write before coalescing
	Retries                   uint64
	WindowStall               uint64
	ShimWrites                uint64
}

// rankOut is what one replica hands back.
type rankOut struct {
	end       time.Time
	snaps     []snapshot
	steps     []float64
	final     []float64
	scatters  int
	staleness []float64
	updates   []float64
	seg       dstorm.Stats
	comp      vol.CompressPerf
}

// cluster is one trial's set of transports and MALT clusters.
type cluster struct {
	transports []fabric.Transport // as built, before any shim
	shims      []*shim
	clusters   []*core.Cluster // one per rank over sockets, else one
}

func (c *cluster) close() {
	for _, cl := range c.clusters {
		_ = cl.Close() // the simulated fabric is owned by the transport below
	}
	for _, t := range c.transports {
		_ = t.Close() // teardown after the trial; nothing is left to flush
	}
}

func (c *cluster) stats() (bytes, failed, stalls, saved, records uint64) {
	for _, t := range c.transports {
		s := t.Stats()
		bytes += s.TotalBytes()
		failed += s.FailedWrites()
		stalls += s.WindowStalls()
		saved += s.WritesSaved()
		records += s.TotalMessages() + s.WritesSaved()
	}
	return
}

func (c *cluster) context(rank int) *core.Context {
	if len(c.clusters) == 1 {
		return c.clusters[0].Context(rank)
	}
	return c.clusters[rank].Context(rank)
}

// build assembles the trial's transport and MALT clusters. tr, when
// non-nil, wraps every transport in a timing shim.
func build(w workload, tr *Tracer) (*cluster, error) {
	cfg := core.Config{
		Ranks:       ranks,
		Dataflow:    dataflow.All,
		Sync:        w.Sync,
		BucketBytes: w.BucketBytes,
		Compress:    w.Compress,
	}
	if w.Pipeline {
		cfg.Pipeline = &dstorm.PipelineConfig{}
	}
	c := &cluster{}
	if !w.TCP {
		fab, err := fabric.New(fabric.Config{Ranks: ranks})
		if err != nil {
			return nil, err
		}
		c.transports = []fabric.Transport{fab}
	} else {
		nets, err := rendezvous()
		if err != nil {
			return nil, err
		}
		for _, n := range nets {
			c.transports = append(c.transports, n)
		}
	}
	for r, t := range c.transports {
		if tr != nil {
			name := "fabric.write"
			if w.TCP {
				name = "stream.write"
			}
			wrapped, s, err := wrapTransport(t, tr, shimOptions{
				WriteName: name, SyncWrites: !w.Pipeline, Inline: !w.TCP,
			})
			if err != nil {
				c.close()
				return nil, err
			}
			c.shims = append(c.shims, s)
			t = wrapped
		}
		cfg.Transport = t
		cl, err := core.NewCluster(cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
		c.clusters = append(c.clusters, cl)
	}
	return c, nil
}

// rendezvous builds one loopback TCP endpoint per rank and joins them.
func rendezvous() ([]*tcpnet.Net, error) {
	lns := make([]net.Listener, ranks)
	peers := make([]string, ranks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close() // unused listener
			}
			return nil, err
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	nets := make([]*tcpnet.Net, ranks)
	closeAll := func() {
		for i, n := range nets {
			if n != nil {
				_ = n.Close() // abandoning a failed rendezvous
			} else {
				_ = lns[i].Close()
			}
		}
	}
	for i := range nets {
		n, err := tcpnet.New(tcpnet.Config{Rank: i, Peers: peers, Listener: lns[i]})
		if err != nil {
			closeAll()
			return nil, err
		}
		nets[i] = n
	}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i, n := range nets {
		wg.Add(1)
		go func(i int, n *tcpnet.Net) {
			defer wg.Done()
			errs[i] = n.Rendezvous()
		}(i, n)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeAll()
		return nil, fmt.Errorf("rendezvous: %w", err)
	}
	return nets, nil
}

// heapSampler tracks the peak live Go heap while a trial runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// runTrial generates the data, builds the cluster, trains w.Steps batches
// per rank and evaluates rank 0's snapshots after the timed region. tr,
// when non-nil, records spans at every layer boundary.
func runTrial(w workload, seed int64, tr *Tracer) (*trial, error) {
	runtime.GC() // start every trial from the same heap state
	heap := startHeapSampler()
	heapStopped := false
	defer func() {
		if !heapStopped {
			heap.Stop()
		}
	}()
	out := &trial{}
	setupStart := time.Now()
	spec, err := w.spec(seed)
	if err != nil {
		return nil, err
	}
	ds, err := data.GenerateClassification(spec)
	if err != nil {
		return nil, err
	}
	out.Generate = time.Since(setupStart)
	out.Dim = ds.Dim

	c, err := build(w, tr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	setFoldTracer(tr)
	defer setFoldTracer(nil)

	nSnap := w.Steps / w.SnapEvery
	arena := make([]float64, nSnap*ds.Dim)
	snapBytes := uint64(len(arena) * 8)

	var (
		startOnce sync.Once
		start     time.Time
		results   = make([]rankOut, ranks)
	)
	replica := func(ctx *core.Context) error {
		return trainRank(ctx, w, ds, tr, arena, &results[ctx.Rank()], func() time.Time {
			startOnce.Do(func() { start = time.Now() })
			return start
		})
	}
	errs := make([]error, ranks)
	if len(c.clusters) == 1 {
		res := c.clusters[0].Run(replica)
		for _, rr := range res.PerRank {
			errs[rr.Rank] = rr.Err
		}
	} else {
		var wg sync.WaitGroup
		for r := range c.clusters {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				res, err := c.clusters[r].RunLocal(r, replica)
				if err == nil {
					err = res.FirstError()
				}
				errs[r] = err
			}(r)
		}
		wg.Wait()
	}
	out.PeakHeap = heap.Stop() - snapBytes
	heapStopped = true
	if start.IsZero() {
		start = setupStart
	}
	out.Setup = start.Sub(setupStart)
	var failed []error
	for r, e := range errs {
		if e != nil {
			out.Failed++
			failed = append(failed, fmt.Errorf("rank %d: %w", r, e))
		}
	}
	bytes, fwrites, stalls, saved, records := c.stats()
	out.Bytes = bytes
	out.Failed += fwrites
	for r := 0; r < ranks; r++ {
		rs := c.context(r).RetryStats()
		out.Writes += rs.Attempts
		out.Failed += rs.Exhausted
	}
	if len(failed) > 0 {
		return out, errors.Join(failed...)
	}

	var end time.Time
	for _, ro := range results {
		if ro.end.After(end) {
			end = ro.end
		}
		out.Scatters += ro.scatters
		out.Overwritten += ro.seg.Overwritten
	}
	out.Region = end.Sub(start)
	out.Examples = ranks * w.Steps * cb
	r0 := results[0]
	out.Steps = r0.steps
	out.Digest = digest(r0.final)

	evalStart := time.Now()
	ev, err := svm.New(w.svmConfig(ds.Dim))
	if err != nil {
		return out, err
	}
	out.Curve = append(out.Curve, curvePoint{0, ev.Loss(make([]float64, ds.Dim), ds.Test)})
	for _, s := range r0.snaps {
		out.Curve = append(out.Curve, curvePoint{s.at.Seconds(), ev.Loss(s.w, ds.Test)})
	}
	out.Loss = ev.Loss(r0.final, ds.Test)
	out.Accuracy = ev.Accuracy(r0.final, ds.Test)
	out.Eval = time.Since(evalStart)

	if tr != nil {
		lc := &layerCounters{WindowStall: stalls, WritesSaved: saved, Records: records}
		for r, ro := range results {
			lc.Staleness = append(lc.Staleness, ro.staleness...)
			lc.Updates = append(lc.Updates, ro.updates...)
			lc.Overwritten += ro.seg.Overwritten
			lc.Consumed += ro.seg.Consumed
			lc.CompressPre += ro.comp.BytesPre
			lc.CompressPost += ro.comp.BytesPost
			lc.ResidualL1 += float64(ro.comp.ResidualNormMicro) / 1e6
			lc.Retries += c.context(r).RetryStats().Retries
		}
		for _, s := range c.shims {
			lc.ShimWrites += s.writes.Load()
		}
		out.Layers = lc
		out.Spans = tr.Spans()
	}
	return out, nil
}

// trainRank is one replica's training loop: bench.RunSVM's gradavg
// path (per-example SGD over a batch, the model delta scattered, the
// peer average applied on the pre-batch model, and a whole-model round
// every modelSyncEvery batches), with rank-0 model copies instead of
// in-loop evaluation and a span around each call into a layer.
//
// started is called once the startup barrier releases and returns the
// shared start of the timed region.
func trainRank(ctx *core.Context, w workload, ds *data.Dataset, tr *Tracer, arena []float64, out *rankOut, started func() time.Time) error {
	rank := ctx.Rank()
	vtype := vol.Dense
	if w.Sparse {
		vtype = vol.Sparse
	}
	udf := vol.Average
	if tr != nil {
		udf = timedAverage
	}
	v, err := ctx.CreateVectorOpts("svm", vtype, ds.Dim, vol.Options{})
	if err != nil {
		return err
	}
	trainer, err := svm.New(w.svmConfig(ds.Dim))
	if err != nil {
		return err
	}
	model := make([]float64, ds.Dim)
	before := make([]float64, ds.Dim)
	lo, hi, err := ctx.Shard(len(ds.Train))
	if err != nil {
		return err
	}
	shard := ds.Train[lo:hi]
	nBatches := (len(ds.Train) / ranks) / cb
	if nBatches == 0 {
		return fmt.Errorf("cb %d exceeds the shard of %d examples", cb, len(shard))
	}
	if err := ctx.Barrier(v); err != nil {
		return err
	}
	regionStart := started()
	if rank == 0 {
		out.steps = make([]float64, 0, w.Steps)
	}
	// span runs fn inside a span named name on this rank.
	span := func(name string, fn func() error) error {
		id := tr.Begin(rank, name)
		err := fn()
		tr.End(id)
		return err
	}
	noteGather := func(st vol.GatherStats, iter uint64) {
		if tr == nil {
			return
		}
		out.updates = append(out.updates, float64(st.Updates))
		if st.Updates > 0 {
			out.staleness = append(out.staleness, float64(int64(iter)-int64(st.MinIter)))
		}
	}
	for step := 1; step <= w.Steps; step++ {
		stepStart := time.Now()
		iter := uint64(step)
		b := (step - 1) % nBatches
		batch := shard[b*cb : (b+1)*cb]
		ctx.SetIteration(iter)
		tr.SetIter(rank, iter)
		stepID := tr.Begin(rank, "step")
		if step%modelSyncEvery != 0 {
			ctx.Compute(func() {
				copy(before, model)
				id := tr.Begin(rank, "svm.train")
				trainer.TrainEpoch(model, batch)
				tr.End(id)
			})
			err := span("vol.scatter", func() error {
				return ctx.ScatterBucketed(v, func(lo, hi int) {
					id := tr.Begin(rank, "svm.delta")
					delta := v.Data()
					for i := lo; i < hi; i++ {
						delta[i] = model[i] - before[i]
					}
					tr.End(id)
				})
			})
			if err != nil {
				return err
			}
			if err := span("consistency.advance", func() error { return ctx.Advance(v) }); err != nil {
				return err
			}
			var st vol.GatherStats
			if err := span("vol.gather", func() (err error) { st, err = ctx.Gather(v, udf); return err }); err != nil {
				return err
			}
			noteGather(st, iter)
			ctx.Compute(func() {
				delta := v.Data()
				for i := range model {
					model[i] = before[i] + delta[i]
				}
			})
		} else {
			ctx.Compute(func() {
				id := tr.Begin(rank, "svm.train")
				trainer.TrainEpoch(model, batch)
				tr.End(id)
				copy(v.Data(), model)
			})
			if err := span("vol.scatter", func() error { return ctx.Scatter(v) }); err != nil {
				return err
			}
			if err := span("consistency.advance", func() error { return ctx.Advance(v) }); err != nil {
				return err
			}
			var st vol.GatherStats
			if err := span("vol.gather", func() (err error) { st, err = ctx.GatherLatest(v, udf); return err }); err != nil {
				return err
			}
			noteGather(st, iter)
			ctx.Compute(func() { copy(model, v.Data()) })
		}
		out.scatters++
		if rank == 0 && step%w.SnapEvery == 0 {
			j := step/w.SnapEvery - 1
			dst := arena[j*ds.Dim : (j+1)*ds.Dim]
			copy(dst, model)
			out.snaps = append(out.snaps, snapshot{at: time.Since(regionStart), w: dst})
		}
		if err := span("consistency.commit", func() error { return ctx.Commit(v) }); err != nil {
			return err
		}
		tr.End(stepID)
		if rank == 0 {
			out.steps = append(out.steps, float64(time.Since(stepStart))/1e6)
		}
	}
	out.end = time.Now()
	if rank == 0 {
		out.final = append([]float64(nil), model...)
	}
	out.seg = v.SegStats()
	if v.Compressed() {
		out.comp = v.CompressPerf()
	}
	return nil
}

// digest is a short hash of a model's exact float64 bits.
func digest(w []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range w {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// serialRun is one single-rank SGD baseline. Its curve is indexed by
// examples trained: a serial step is the same work every time, so its time
// to a loss is the examples needed times the measured cost per example,
// which is steadier than the clock read at one snapshot.
type serialRun struct {
	Elapsed  time.Duration
	Examples int
	Curve    []curvePoint
}

// runSerial trains one svm.Trainer on the whole training set in order —
// the plain single-worker baseline — copying the model every
// w.SerialSnapEvery examples and evaluating the copies after the clock
// stops.
func runSerial(w workload, ds *data.Dataset) (serialRun, error) {
	tr, err := svm.New(w.svmConfig(ds.Dim))
	if err != nil {
		return serialRun{}, err
	}
	model := make([]float64, ds.Dim)
	nSnap := w.SerialExamples / w.SerialSnapEvery
	runtime.GC() // the previous trial's garbage must not be collected inside the timing
	arena := make([]float64, nSnap*ds.Dim)
	times := 0
	start := time.Now()
	for i := 1; i <= w.SerialExamples; i++ {
		tr.Step(model, ds.Train[(i-1)%len(ds.Train)])
		if i%w.SerialSnapEvery == 0 {
			copy(arena[times*ds.Dim:(times+1)*ds.Dim], model)
			times++
		}
	}
	run := serialRun{Elapsed: time.Since(start), Examples: w.SerialExamples}
	curve := []curvePoint{{0, tr.Loss(make([]float64, ds.Dim), ds.Test)}}
	for j := 0; j < times; j++ {
		curve = append(curve, curvePoint{float64((j + 1) * w.SerialSnapEvery), tr.Loss(arena[j*ds.Dim:(j+1)*ds.Dim], ds.Test)})
	}
	run.Curve = curve
	return run, nil
}

// timeToLoss returns when the curve first reaches target, interpolating
// linearly between the two samples that bracket the crossing, or NaN if
// it never does.
func timeToLoss(curve []curvePoint, target float64) float64 {
	for i, p := range curve {
		if p.Loss > target {
			continue
		}
		if i == 0 {
			return p.T
		}
		q := curve[i-1]
		return q.T + (q.Loss-target)/(q.Loss-p.Loss)*(p.T-q.T)
	}
	return math.NaN()
}
