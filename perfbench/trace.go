package main

import (
	"sort"
	"sync"
	"time"
)

// noParent marks a root span.
const noParent = -1

// Span is one timed call across a layer boundary. Spans of one training
// step share (Rank, Iter).
type Span struct {
	ID     int
	Parent int // noParent for a root
	Name   string
	Rank   int
	Iter   uint64
	// Start and End are nanoseconds since the tracer's origin; End is 0
	// while the span is open.
	Start, End int64
	// Bytes is the payload size for boundaries that move one (writes and
	// deposits), else 0.
	Bytes int
	// pushed marks a span opened with Begin, which End pops off its rank's
	// stack.
	pushed bool
}

// Duration is the span's wall time in nanoseconds.
func (s Span) Duration() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is valid
// and records nothing, so the untraced run executes the same code with
// every hook reduced to a nil check.
type Tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []Span
	stack [][]int  // per rank: open Begin spans, innermost last
	iter  []uint64 // per rank: the iteration spans are stamped with
}

func newTracer(ranks int) *Tracer {
	return &Tracer{
		origin: time.Now(),
		spans:  make([]Span, 0, 1<<16),
		stack:  make([][]int, ranks),
		iter:   make([]uint64, ranks),
	}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.origin)) }

// SetIter stamps rank's subsequent spans with iteration iter.
func (t *Tracer) SetIter(rank int, iter uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.iter[rank] = iter
	t.mu.Unlock()
}

// Begin opens a span on rank's own goroutine, nested in that rank's
// innermost open span. It must be closed with End before its parent is.
func (t *Tracer) Begin(rank int, name string) int {
	if t == nil {
		return noParent
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := noParent
	if st := t.stack[rank]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := t.add(Span{Parent: parent, Name: name, Rank: rank, Iter: t.iter[rank], Start: at, pushed: true})
	t.stack[rank] = append(t.stack[rank], id)
	return id
}

// Start opens a span with an explicit parent (noParent for a root). It is
// safe from any goroutine — deposit workers and socket receivers — and
// never touches a rank's stack.
func (t *Tracer) Start(rank int, name string, parent, bytes int) int {
	if t == nil {
		return noParent
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(Span{Parent: parent, Name: name, Rank: rank, Iter: t.iter[rank], Start: at, Bytes: bytes})
}

// Top returns rank's innermost open Begin span, or noParent.
func (t *Tracer) Top(rank int) int {
	if t == nil {
		return noParent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stack[rank]; len(st) > 0 {
		return st[len(st)-1]
	}
	return noParent
}

func (t *Tracer) add(s Span) int {
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == noParent {
		return
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = at
	if s.pushed {
		st := t.stack[s.Rank]
		t.stack[s.Rank] = st[:len(st)-1]
	}
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval covered by the union of its children's intervals.
// Open spans (End == 0) get -1.
func selfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var buf []iv
	for i, s := range spans {
		if s.End == 0 {
			out[i] = -1
			continue
		}
		buf = buf[:0]
		for _, c := range children[i] {
			cs := spans[c]
			lo, hi := cs.Start, cs.End
			if hi == 0 {
				hi = s.End // an unfinished child covers the rest of its parent
			}
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				buf = append(buf, iv{lo, hi})
			}
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a].lo < buf[b].lo })
		covered := int64(0)
		var cur iv
		for k, v := range buf {
			switch {
			case k == 0:
				cur = v
			case v.lo <= cur.hi:
				if v.hi > cur.hi {
					cur.hi = v.hi
				}
			default:
				covered += cur.hi - cur.lo
				cur = v
			}
		}
		if len(buf) > 0 {
			covered += cur.hi - cur.lo
		}
		out[i] = s.Duration() - covered
	}
	return out
}
