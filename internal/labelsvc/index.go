package labelsvc

import (
	"cmp"
	"slices"
	"strings"

	"omg/internal/assertion"
)

// This file is the live candidate index: the retained violation log
// folded into per-sample candidates, kept current by signed deltas
// instead of being re-derived from the log.
//
// The index is a multiset. Every retained violation with a positive
// severity is one unit in the cell (stream, sample, assertion, severity);
// an add is +1 there and an eviction -1. A candidate exists iff one of
// its cells is positive, its severity for an assertion is the largest
// positive cell's, and an assertion is on the feature axis iff some cell
// of it is positive anywhere. Because the counts are signed and every
// derived fact is "is the count positive", the fold commutes: an eviction
// that overtakes its own add (two sources share a shard; B's append
// overflows the ring onto A's violation before A's ObserveBatch runs)
// parks a -1 that the late add cancels. Whenever no apply is in flight the
// cells are exactly the retained log's; while one is, the most a reader
// can miss is the overtaken violation's identical twin — same sample,
// assertion and severity — hidden by the parked -1 until the add lands.

// delta is one signed change to the retained multiset.
type delta struct {
	stream, assertion string
	sample            int
	sev               float64
	n                 int32 // +1 add, -1 eviction
}

// cell counts the retained violations of one (assertion, severity) on a
// candidate. Cells that return to zero are dropped.
type cell struct {
	name int32 // assertion id: a position in index.names
	n    int32
	sev  float64
}

// cand is one (stream, sample) with its cells. vec, top and maxSev are
// derived from the positive cells over the index's current feature axis
// and recomputed lazily: axisGen names the axis generation they were
// derived for, 0 meaning stale.
type cand struct {
	st       *streamIdx
	sample   int
	cells    []cell
	positive int32 // cells with n > 0; the candidate exists iff > 0

	axisGen uint32
	top     int32 // axis position of the highest-severity assertion
	maxSev  float64
	vec     assertion.Vector
}

// streamIdx is one stream's candidates in ascending sample order. A cand
// whose cells are gone stays in the list as a tombstone until tombstones
// outnumber the rest, so evicting the oldest samples — what retention
// does — never shifts the list.
type streamIdx struct {
	name string
	list []*cand
	dead int
}

// assertionRef is one assertion name and how many positive cells carry it.
type assertionRef struct {
	name string
	ref  int
}

// index is the candidate pool: streams in name order, each stream's
// samples in order — the canonical (stream, sample) order selection is
// deterministic over — plus the assertion axis.
type index struct {
	streams map[string]*streamIdx
	order   []*streamIdx // by name

	nameID map[string]int32
	names  []assertionRef // by id

	// axis is the sorted names with ref > 0 — the bandit's feature axis —
	// and axisOf maps an assertion id to its axis position (-1 = absent).
	// Both are rebuilt by settle when a name's ref crossed zero; axisGen
	// then moves on, which is what invalidates every cand's derived fields.
	axis      []string
	axisOf    []int32
	axisGen   uint32
	axisStale bool

	ncands int // cands with a positive cell
	ncells int
}

func newIndex() *index {
	return &index{
		streams: make(map[string]*streamIdx),
		nameID:  make(map[string]int32),
		axisGen: 1,
	}
}

// apply folds one delta. The caller runs settle after a batch of them and
// before reading.
func (x *index) apply(d delta) {
	st := x.streams[d.stream]
	if st == nil {
		// Cloned: the index must not pin the ingest buffer a decoded
		// violation's strings may share.
		st = &streamIdx{name: strings.Clone(d.stream)}
		x.streams[st.name] = st
		at, _ := slices.BinarySearchFunc(x.order, st.name, func(s *streamIdx, name string) int {
			return strings.Compare(s.name, name)
		})
		x.order = slices.Insert(x.order, at, st)
	}
	c := st.candidate(d.sample)
	id, ok := x.nameID[d.assertion]
	if !ok {
		id = int32(len(x.names))
		name := strings.Clone(d.assertion)
		x.nameID[name] = id
		x.names = append(x.names, assertionRef{name: name})
	}

	wasEmpty := len(c.cells) == 0
	at := slices.IndexFunc(c.cells, func(cl cell) bool { return cl.name == id && cl.sev == d.sev })
	if at < 0 {
		at = len(c.cells)
		c.cells = append(c.cells, cell{name: id, sev: d.sev})
		x.ncells++
	}
	before := c.cells[at].n
	after := before + d.n
	c.cells[at].n = after
	if after == 0 {
		c.cells = slices.Delete(c.cells, at, at+1)
		x.ncells--
	}

	// Only a cell turning positive or ceasing to be changes anything
	// derived: the candidate's features, whether it exists, the axis.
	switch {
	case before <= 0 && after > 0:
		if x.names[id].ref++; x.names[id].ref == 1 {
			x.axisStale = true
		}
		if c.positive++; c.positive == 1 {
			x.ncands++
		}
		c.axisGen = 0
	case before > 0 && after <= 0:
		if x.names[id].ref--; x.names[id].ref == 0 {
			x.axisStale = true
		}
		if c.positive--; c.positive == 0 {
			x.ncands--
		}
		c.axisGen = 0
	}

	switch isEmpty := len(c.cells) == 0; {
	case wasEmpty && !isEmpty:
		st.dead--
	case !wasEmpty && isEmpty:
		st.dead++
		if st.dead*2 > len(st.list) {
			x.sweep(st)
		}
	}
}

// candidate returns the stream's cand for sample, inserting an empty one
// (a tombstone until apply gives it a cell) when there is none.
func (st *streamIdx) candidate(sample int) *cand {
	at := len(st.list)
	if at > 0 && st.list[at-1].sample >= sample {
		var found bool
		at, found = st.find(sample)
		if found {
			return st.list[at]
		}
	}
	c := &cand{st: st, sample: sample}
	st.list = slices.Insert(st.list, at, c)
	st.dead++
	return c
}

func (st *streamIdx) find(sample int) (int, bool) {
	return slices.BinarySearchFunc(st.list, sample, func(c *cand, sample int) int { return cmp.Compare(c.sample, sample) })
}

// sweep drops a stream's tombstones, and the stream with its last cand —
// which keeps the index bounded by the retained log on a fleet whose
// stream keys churn.
func (x *index) sweep(st *streamIdx) {
	st.list = slices.DeleteFunc(st.list, func(c *cand) bool { return len(c.cells) == 0 })
	st.dead = 0
	if len(st.list) > 0 {
		return
	}
	delete(x.streams, st.name)
	x.order = slices.DeleteFunc(x.order, func(s *streamIdx) bool { return s == st })
}

// settle rebuilds the assertion axis if a fold changed which assertions
// have a positive cell. An axis that comes out the same (a name that
// flickered within one batch) keeps its generation.
func (x *index) settle() {
	if !x.axisStale {
		return
	}
	x.axisStale = false
	axis := make([]string, 0, len(x.axis))
	for _, a := range x.names {
		if a.ref > 0 {
			axis = append(axis, a.name)
		}
	}
	slices.Sort(axis)
	if slices.Equal(axis, x.axis) {
		return
	}
	x.axis = axis
	x.axisOf = make([]int32, len(x.names))
	for id, a := range x.names {
		x.axisOf[id] = -1
		if a.ref > 0 {
			pos, _ := slices.BinarySearch(axis, a.name)
			x.axisOf[id] = int32(pos)
		}
	}
	x.axisGen++
}

// derive brings c's feature vector, top assertion and maximum severity up
// to the current axis: per assertion the largest positive cell, the top
// being the highest severity with ties to the lexicographically smaller
// name (axis positions are in name order). The index must be settled.
func (x *index) derive(c *cand) {
	if c.axisGen == x.axisGen {
		return
	}
	// A fresh vector, never the old one rewritten: a selector may still
	// hold the previous round's.
	c.vec = make(assertion.Vector, len(x.axis))
	for _, cl := range c.cells {
		if cl.n <= 0 {
			continue
		}
		if pos := x.axisOf[cl.name]; cl.sev > c.vec[pos] {
			c.vec[pos] = cl.sev
		}
	}
	c.top, c.maxSev = 0, 0
	for pos, sev := range c.vec {
		if sev > c.maxSev {
			c.top, c.maxSev = int32(pos), sev
		}
	}
	c.axisGen = x.axisGen
}
