package main

import "testing"

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: noParent, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 40},  // overlaps child 1: counted once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 4, Parent: 1, Start: 12, End: 18},  // grandchild: only its parent subtracts it
		{ID: 5, Parent: 0, Start: 60, End: 0},   // unfinished: covers the rest of the parent
		{ID: 6, Parent: noParent, Start: 200, End: 250},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 40, 20 - 6, 20, 30, 6, -1, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNestsBeginSpansPerRank(t *testing.T) {
	tr := newTracer(2)
	tr.SetIter(0, 7)
	step := tr.Begin(0, "step")
	other := tr.Begin(1, "step")
	scatter := tr.Begin(0, "vol.scatter")
	write := tr.Start(0, "fabric.write", tr.Top(0), 64)
	tr.End(write)
	tr.End(scatter)
	async := tr.Start(0, "fabric.write", noParent, 8)
	tr.End(async)
	tr.End(other)
	tr.End(step)
	spans := tr.Spans()
	for _, c := range []struct{ id, parent int }{
		{step, noParent}, {other, noParent}, {scatter, step}, {write, scatter}, {async, noParent},
	} {
		if spans[c.id].Parent != c.parent {
			t.Errorf("span %d (%s) has parent %d, want %d", c.id, spans[c.id].Name, spans[c.id].Parent, c.parent)
		}
		if spans[c.id].End < spans[c.id].Start || spans[c.id].End == 0 {
			t.Errorf("span %d not closed properly: %+v", c.id, spans[c.id])
		}
	}
	if spans[scatter].Iter != 7 || spans[other].Iter != 0 {
		t.Errorf("iterations %d/%d, want 7/0", spans[scatter].Iter, spans[other].Iter)
	}
	if spans[write].Bytes != 64 {
		t.Errorf("write span carries %d bytes", spans[write].Bytes)
	}
	if tr.Top(0) != noParent || tr.Top(1) != noParent {
		t.Error("stacks not empty after every span ended")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(0, "step")
	tr.SetIter(0, 1)
	tr.End(tr.Start(0, "x", id, 1))
	tr.End(id)
	if tr.Spans() != nil || tr.Top(0) != noParent {
		t.Error("nil tracer recorded spans")
	}
}
