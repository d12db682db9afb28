package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"malt/internal/fabric"
	"malt/internal/vol"
)

// shim is a forwarding fabric.Transport that records a span around every
// Write and WriteBatch and around every registered WriteHandler. It
// changes nothing the program sees: every call, argument and error passes
// through, and the optional Membership interface is forwarded.
type shim struct {
	inner fabric.Transport
	mem   fabric.Membership
	tr    *Tracer
	// writeName names write spans ("fabric.write" in process, "stream.write"
	// over sockets).
	writeName string
	// syncWrites: writes run on the writing rank's own goroutine (no send
	// pipeline), so they nest under that rank's open span.
	syncWrites bool
	// inline: handlers run inside Write on the writer's goroutine (the
	// in-process fabric), so a deposit nests under the write that made it.
	inline bool

	// open[from][to] is the write span in progress on that link. In-process
	// links have one writer at a time: the rank itself without a pipeline,
	// or the one deposit worker the pipeline pins each destination to.
	open [][]atomic.Int64

	writes atomic.Uint64
}

// shimOptions says how the wrapped transport runs writes and handlers.
type shimOptions struct {
	WriteName  string
	SyncWrites bool
	Inline     bool
}

// coordShim is a shim over a transport that also brings its own barrier
// (fabric.Coordinator) and write-window Drain, both forwarded. dstorm
// delegates barriers only when the transport implements Coordinator, so
// the wrapper must implement it exactly when the wrapped transport does.
type coordShim struct {
	*shim
	coord   fabric.Coordinator
	drainer interface{ Drain() error }
}

func (c *coordShim) Barrier(name string, rank int) error { return c.coord.Barrier(name, rank) }

func (c *coordShim) Drain() error {
	if c.drainer == nil {
		return nil
	}
	return c.drainer.Drain()
}

// wrapTransport returns inner wrapped in a timing shim recording into tr,
// together with the shim for its counters.
func wrapTransport(inner fabric.Transport, tr *Tracer, o shimOptions) (fabric.Transport, *shim, error) {
	mem, ok := inner.(fabric.Membership)
	if !ok {
		return nil, nil, fmt.Errorf("perfbench: transport %T does not implement fabric.Membership", inner)
	}
	n := inner.Ranks()
	s := &shim{
		inner: inner, mem: mem, tr: tr,
		writeName: o.WriteName, syncWrites: o.SyncWrites, inline: o.Inline,
		open: make([][]atomic.Int64, n),
	}
	for i := range s.open {
		s.open[i] = make([]atomic.Int64, n)
		for j := range s.open[i] {
			s.open[i][j].Store(noParent)
		}
	}
	if co, ok := inner.(fabric.Coordinator); ok {
		d, _ := inner.(interface{ Drain() error })
		return &coordShim{shim: s, coord: co, drainer: d}, s, nil
	}
	return s, s, nil
}

var (
	_ fabric.Transport   = (*shim)(nil)
	_ fabric.Membership  = (*shim)(nil)
	_ fabric.Coordinator = (*coordShim)(nil)
)

func (s *shim) Ranks() int { return s.inner.Ranks() }

func (s *shim) Register(rank int, key string, h fabric.WriteHandler) error {
	return s.inner.Register(rank, key, s.timeHandler(rank, h))
}

// timeHandler wraps one registered handler in a dstorm.deposit span.
func (s *shim) timeHandler(rank int, h fabric.WriteHandler) fabric.WriteHandler {
	return func(from int, payload []byte) error {
		parent, spanRank := noParent, rank
		if s.inline {
			parent, spanRank = int(s.open[from][rank].Load()), from
		}
		id := s.tr.Start(spanRank, "dstorm.deposit", parent, len(payload))
		err := h(from, payload)
		s.tr.End(id)
		return err
	}
}

func (s *shim) Unregister(rank int, key string) error { return s.inner.Unregister(rank, key) }

func (s *shim) beginWrite(from, to, bytes int) int {
	var id int
	if s.syncWrites {
		id = s.tr.Start(from, s.writeName, s.tr.Top(from), bytes)
	} else {
		id = s.tr.Start(from, s.writeName, noParent, bytes)
	}
	s.open[from][to].Store(int64(id))
	return id
}

func (s *shim) endWrite(from, to, id int) {
	s.open[from][to].Store(noParent)
	s.tr.End(id)
	s.writes.Add(1)
}

func (s *shim) Write(from, to int, key string, payload []byte) error {
	id := s.beginWrite(from, to, len(payload))
	err := s.inner.Write(from, to, key, payload)
	s.endWrite(from, to, id)
	return err
}

func (s *shim) WriteBatch(from, to int, key string, records [][]byte) error {
	n := 0
	for _, r := range records {
		n += len(r)
	}
	id := s.beginWrite(from, to, n)
	err := s.inner.WriteBatch(from, to, key, records)
	s.endWrite(from, to, id)
	return err
}

func (s *shim) Ping(from, to int) error                        { return s.inner.Ping(from, to) }
func (s *shim) Kill(rank int) error                            { return s.inner.Kill(rank) }
func (s *shim) Alive(rank int) bool                            { return s.inner.Alive(rank) }
func (s *shim) AliveRanks() []int                              { return s.inner.AliveRanks() }
func (s *shim) GroupOf(rank int) int                           { return s.inner.GroupOf(rank) }
func (s *shim) OnLivenessChange(fn func(rank int, alive bool)) { s.inner.OnLivenessChange(fn) }
func (s *shim) Stats() *fabric.Stats                           { return s.inner.Stats() }
func (s *shim) Close() error                                   { return s.inner.Close() }

func (s *shim) Epoch() uint64                          { return s.mem.Epoch() }
func (s *shim) Join(rank int) (uint64, error)          { return s.mem.Join(rank) }
func (s *shim) OnJoin(fn func(rank int, epoch uint64)) { s.mem.OnJoin(fn) }
func (s *shim) StaleEpochRejected() uint64             { return s.mem.StaleEpochRejected() }

// The fold timer. vol picks a UDF's chunk form by the function's code
// pointer, so the timer has to be a named top-level function registered
// with vol.RegisterChunkUDF: a closure would miss the registry and fall
// back to the unchunked path, timing a different fold. It records into the
// tracer installed with setFoldTracer; with none it is vol.AverageChunk.

var foldTracer struct {
	sync.RWMutex
	tr *Tracer
}

func setFoldTracer(tr *Tracer) {
	foldTracer.Lock()
	foldTracer.tr = tr
	foldTracer.Unlock()
}

func init() {
	vol.RegisterChunkUDF(timedAverage, timedAverageChunk)
}

// timedAverage is vol.Average with its fold timed.
func timedAverage(f vol.Fold) {
	timedAverageChunk(vol.Chunk{Self: f.Self, Lo: 0, Hi: len(f.Local), Local: f.Local, Updates: f.Updates})
}

// timedAverageChunk is vol.AverageChunk inside a vol.fold span. Folds of
// no updates return at once and are not recorded.
func timedAverageChunk(c vol.Chunk) {
	if len(c.Updates) == 0 {
		vol.AverageChunk(c)
		return
	}
	foldTracer.RLock()
	tr := foldTracer.tr
	foldTracer.RUnlock()
	id := tr.Begin(c.Self, "vol.fold")
	vol.AverageChunk(c)
	tr.End(id)
}
