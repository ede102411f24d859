package consistency

import (
	"hash/maphash"
	"sync"

	"omg/internal/assertion"
)

// attrKind marks a check generated for an attribute key; New rejects it
// as a Temporal entry, so it never names a temporal assertion.
const attrKind TemporalKind = "attr"

// check is one generated assertion — "<name>:attr:<key>",
// "<name>:flicker" or "<name>:appear". Its severity is the number of
// attribute disagreements, flicker events or transient appearances in
// the window: for any window, exactly the number of attrProposals with
// Key key, flickerEvents or appearEvents the full-stream functions find
// in it, which is what the tests hold it to.
type check[Y any] struct {
	g    *Generator[Y]
	name string
	kind TemporalKind
	key  string // attribute key, for attrKind
	// scratch pools the windows a stateless Check decodes into.
	scratch sync.Pool
}

func (g *Generator[Y]) newCheck(name string, kind TemporalKind, key string) *check[Y] {
	c := &check[Y]{g: g, name: name, kind: kind, key: key}
	c.scratch.New = func() any { return new(window) }
	return c
}

// Name implements assertion.Assertion.
func (c *check[Y]) Name() string { return c.name }

// Check implements assertion.Assertion: it decodes the whole window into
// pooled scratch and counts.
func (c *check[Y]) Check(samples []assertion.Sample) float64 {
	w := c.scratch.Get().(*window)
	c.fill(w, samples)
	sev := c.count(w)
	c.scratch.Put(w)
	return sev
}

// NewState implements assertion.Stateful.
func (c *check[Y]) NewState() assertion.State { return &state[Y]{c: c} }

// state is one monitor's decoded window for a check: it decodes only the
// newest sample of each window and recounts over the retained frames.
type state[Y any] struct {
	c *check[Y]
	w window
}

// Check implements assertion.State. A window one longer than the retained
// frames grew by its newest sample; one as long slid by one sample. Any
// other length means the caller is not stepping a monitor's window, so
// the whole window is decoded afresh.
func (s *state[Y]) Check(samples []assertion.Sample) float64 {
	switch n := len(samples); {
	case n > 0 && len(s.w.frames) == n-1:
		s.w.grow()
		s.c.decodeNewest(&s.w, samples[n-1])
	case n > 0 && len(s.w.frames) == n:
		s.w.slide()
		s.c.decodeNewest(&s.w, samples[n-1])
	default:
		s.c.fill(&s.w, samples)
	}
	return s.c.count(&s.w)
}

// Reset implements assertion.State.
func (s *state[Y]) Reset() { s.w.frames = s.w.frames[:0] }

// window is a check's decoded samples, oldest first, plus the counting
// routine's scratch. Frames beyond len(frames) keep their buffers for
// reuse, and no two frames share one.
type window struct {
	frames []frame
	groups []group
	// gPrev and gCur map the previous and current frame's entries to
	// their groups during a count.
	gPrev, gCur []int
}

// frame is one sample as the counting routine sees it: its time and one
// entry per output.
type frame struct {
	time float64
	outs []entry
}

// entry is one output's identifier, with its attribute value for an
// attribute check. h hashes id, so the counting routine compares strings
// only for identifiers that (almost surely) match. prev is the index of
// the same key in the previous frame's entries, or -1: an identifier
// present in consecutive samples joins its group without a search.
type entry struct {
	h    uint64
	id   string
	prev int
	attrVal
}

// idSeed seeds every entry hash in the process.
var idSeed = maphash.MakeSeed()

// group is the counting routine's tally of one identifier (temporal) or
// one (identifier, present value) pair (attribute) across the window.
type group struct {
	h           uint64
	id, v       string
	first, last int // frame positions of the first and latest presence
	n           int // presences
}

// grow appends a frame for a new newest sample, reusing a retained
// buffer when there is one.
func (w *window) grow() {
	if len(w.frames) < cap(w.frames) {
		w.frames = w.frames[:len(w.frames)+1]
	} else {
		w.frames = append(w.frames, frame{})
	}
}

// slide drops the oldest frame and reuses its buffer as the newest.
func (w *window) slide() {
	oldest := w.frames[0]
	copy(w.frames, w.frames[1:])
	w.frames[len(w.frames)-1] = oldest
}

// fill decodes every sample of the window afresh.
func (c *check[Y]) fill(w *window, samples []assertion.Sample) {
	w.frames = w.frames[:0]
	for _, s := range samples {
		w.grow()
		c.decodeNewest(w, s)
	}
}

// decodeNewest fills the window's last frame from sample s: Id (and
// Attrs, for an attribute check) run once per output. A sample whose
// Output is not []Y has no outputs.
func (c *check[Y]) decodeNewest(w *window, s assertion.Sample) {
	f := &w.frames[len(w.frames)-1]
	var before []entry
	if len(w.frames) > 1 {
		before = w.frames[len(w.frames)-2].outs
	}
	f.time = s.Time
	f.outs = f.outs[:0]
	ys, _ := s.Output.([]Y)
	for _, y := range ys {
		e := entry{id: c.g.cfg.Id(y), prev: -1}
		e.h = maphash.String(idSeed, e.id)
		if c.kind == attrKind {
			e.v, e.ok = c.g.cfg.Attrs(y)[c.key]
		}
		for i, b := range before {
			if b.h == e.h && b.id == e.id && b.attrVal == e.attrVal {
				e.prev = i
				break
			}
		}
		f.outs = append(f.outs, e)
	}
}

// count is the one counting routine behind every generated assertion. A
// single pass over the frames tallies each identifier (each identifier
// and value, for an attribute check) into w.groups by linear search, so
// it needs no map, no sort and no event list:
//   - flicker counts each return of an identifier after at least one
//     absent frame and less than T seconds after its previous presence;
//   - appear counts identifiers whose presences neither touch the window
//     edge nor span T seconds;
//   - an attribute check counts, per identifier, the present values
//     outside its most common one — the outputs a majority vote disputes.
func (c *check[Y]) count(w *window) float64 {
	fs := w.frames
	if c.kind != attrKind && len(fs) < 3 {
		return 0
	}
	t := c.g.cfg.T
	w.groups = w.groups[:0]
	n := 0
	for p := range fs {
		w.gPrev, w.gCur = w.gCur, w.gPrev[:0]
		for _, e := range fs[p].outs {
			gi := -1
			switch {
			case c.kind == attrKind && !e.ok:
				w.gCur = append(w.gCur, -1)
				continue
			case p > 0 && e.prev >= 0:
				gi = w.gPrev[e.prev]
			default:
				gi = findGroup(w.groups, e)
			}
			if gi < 0 {
				w.gCur = append(w.gCur, len(w.groups))
				w.groups = append(w.groups, group{h: e.h, id: e.id, v: e.v, first: p, last: p, n: 1})
				continue
			}
			w.gCur = append(w.gCur, gi)
			g := &w.groups[gi]
			if c.kind == Flicker && p-g.last > 1 && fs[p].time-fs[g.last].time < t {
				n++
			}
			g.last = p
			g.n++
		}
	}
	switch c.kind {
	case Appear:
		for _, g := range w.groups {
			if g.first > 0 && g.last < len(fs)-1 && fs[g.last].time-fs[g.first].time < t {
				n++
			}
		}
	case attrKind:
		for i, g := range w.groups {
			n += g.n
			if findGroupID(w.groups[:i], g) >= 0 {
				continue // this identifier's values were settled at its first group
			}
			best := g.n
			for _, h := range w.groups[i+1:] {
				if h.h == g.h && h.id == g.id {
					best = max(best, h.n)
				}
			}
			n -= best
		}
	}
	return float64(n)
}

// findGroup returns the index of e's group, or -1.
func findGroup(gs []group, e entry) int {
	for i := range gs {
		if gs[i].h == e.h && gs[i].id == e.id && gs[i].v == e.v {
			return i
		}
	}
	return -1
}

func findGroupID(gs []group, g group) int {
	for i := range gs {
		if gs[i].h == g.h && gs[i].id == g.id {
			return i
		}
	}
	return -1
}
