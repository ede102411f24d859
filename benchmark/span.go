package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started; Parent is the ID of the span that caused this
// one (0 for a root); spans of one wire batch share (Source, Seq).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Source string `json:"source,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
}

// aggregate is the boundary counter for calls too frequent to keep one
// span each (Sink.Record runs once per violation): a count and the total
// time spent inside.
type aggregate struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (a *aggregate) add(d time.Duration) {
	a.n.Add(1)
	a.ns.Add(d.Nanoseconds())
}

// tracer keeps every span in memory until the benchmark ends. A nil
// *tracer is the untraced run: every method is a no-op, so call sites
// need no branches.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	aggs  map[string]*aggregate
}

func newTracer() *tracer { return &tracer{t0: time.Now(), aggs: map[string]*aggregate{}} }

// start opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) start(name string, parent int, source string, seq uint64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, Source: source, Seq: seq})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// aggregate returns the named boundary counter, creating it on first use.
func (t *tracer) aggregate(name string) *aggregate {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[name]
	if a == nil {
		a = &aggregate{}
		t.aggs[name] = a
	}
	return a
}

// selfTimes returns, for every span (indexed as in spans), its duration
// minus the part of its own interval that its child spans cover.
// Overlapping children (two requests in flight under one parent) are
// counted once, and a child running past its parent's end only counts up
// to that end.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanStats is one span name's totals over a finished trace.
type spanStats struct {
	Count   int
	MeanMs  float64
	SelfMs  float64 // mean self time
	TotalMs float64
}

// byName folds the finished spans (End set) by name.
func (t *tracer) byName() map[string]spanStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	type acc struct{ n, dur, self int64 }
	accs := map[string]*acc{}
	for i, s := range spans {
		if s.End == 0 {
			continue // never finished: the run ended with it in flight
		}
		a := accs[s.Name]
		if a == nil {
			a = &acc{}
			accs[s.Name] = a
		}
		a.n++
		a.dur += s.End - s.Start
		a.self += self[i]
	}
	out := make(map[string]spanStats, len(accs))
	for name, a := range accs {
		out[name] = spanStats{
			Count:   int(a.n),
			MeanMs:  float64(a.dur) / float64(a.n) / 1e6,
			SelfMs:  float64(a.self) / float64(a.n) / 1e6,
			TotalMs: float64(a.dur) / 1e6,
		}
	}
	return out
}

// write dumps the trace as JSON: every span, then the boundary counters.
func (t *tracer) write(path string) error {
	type aggJSON struct {
		Count   int64 `json:"count"`
		TotalNs int64 `json:"total_ns"`
	}
	t.mu.Lock()
	doc := struct {
		Spans      []span             `json:"spans"`
		Aggregates map[string]aggJSON `json:"aggregates"`
	}{Spans: t.spans, Aggregates: map[string]aggJSON{}}
	for name, a := range t.aggs {
		doc.Aggregates[name] = aggJSON{a.n.Load(), a.ns.Load()}
	}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
