package main

import "testing"

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Two children in flight at once cover [10,50] between them: 40, not 60.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A child running past its parent's end only counts up to it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},
		// A grandchild reduces its own parent, not the root.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
		// A child wholly inside an earlier sibling adds nothing.
		{ID: 6, Parent: 1, Name: "e", Start: 25, End: 30},
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 10, 30, 40, 10, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0, "", 0)
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
}

func TestByNameSkipsUnfinishedSpans(t *testing.T) {
	tr := newTracer()
	a := tr.start("op", 0, "src", 1)
	b := tr.start("child", a, "src", 1)
	tr.end(b)
	tr.end(a)
	tr.start("op", 0, "src", 2) // in flight when the run ended
	st := tr.byName()
	if st["op"].Count != 1 || st["child"].Count != 1 {
		t.Errorf("byName counted %+v", st)
	}
	if st["op"].SelfMs > st["op"].MeanMs {
		t.Errorf("self time %v exceeds duration %v", st["op"].SelfMs, st["op"].MeanMs)
	}
}
