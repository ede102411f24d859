package assertion

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync/atomic"
)

// Stats summarises the firings of one assertion.
type Stats struct {
	Fired       int     `json:"fired"`
	TotalSev    float64 `json:"total_severity"`
	MaxSev      float64 `json:"max_severity"`
	LastSample  int     `json:"last_sample"`
	FirstSample int     `json:"first_sample"`
}

// StatsTable holds one store's per-assertion Stats, folded from every
// appended violation. It is not safe for concurrent use: each store
// guards its table with the lock it already takes for its RowLog, so the
// statistics and the retained log change together. The zero value is
// empty and ready to use.
type StatsTable struct {
	byName map[string]*Stats
	total  int
}

// Fold applies one violation to its assertion's statistics. A fresh
// entry starts at the violation's own severity and sample, so an
// assertion whose severities are all negative reports its true maximum.
func (t *StatsTable) Fold(v *Violation) {
	st := t.byName[v.Assertion]
	if st == nil {
		if t.byName == nil {
			t.byName = make(map[string]*Stats)
		}
		st = &Stats{MaxSev: v.Severity, FirstSample: v.SampleIndex}
		t.byName[v.Assertion] = st
	} else if v.Severity > st.MaxSev {
		st.MaxSev = v.Severity
	}
	st.Fired++
	st.TotalSev = AddSeverity(st.TotalSev, v.Severity)
	st.LastSample = v.SampleIndex
	t.total++
}

// Get returns one assertion's statistics.
func (t *StatsTable) Get(name string) (Stats, bool) {
	if st := t.byName[name]; st != nil {
		return *st, true
	}
	return Stats{}, false
}

// All returns a copy of every fired assertion's statistics.
func (t *StatsTable) All() map[string]Stats {
	out := make(map[string]Stats, len(t.byName))
	for name, st := range t.byName {
		out[name] = *st
	}
	return out
}

// Total returns the lifetime violation count: the sum of Fired.
func (t *StatsTable) Total() int { return t.total }

// Names returns the names of assertions that have fired, sorted.
func (t *StatsTable) Names() []string {
	return slices.Sorted(maps.Keys(t.byName))
}

// Set replaces the table with a copy of stats: a checkpoint's statistics
// at recovery, or a snapshot's at import.
func (t *StatsTable) Set(stats map[string]Stats) {
	t.byName = make(map[string]*Stats, len(stats))
	t.total = 0
	for name, st := range stats {
		t.byName[name] = &st
		t.total += st.Fired
	}
}

// AddSeverity returns a+b saturated at ±math.MaxFloat64. Every severity
// sum (TotalSev) goes through it, so finite severities never add up to an
// infinity that checkpoints, snapshots and the JSON encoders cannot hold.
func AddSeverity(a, b float64) float64 {
	s := a + b
	if math.IsInf(s, 0) {
		return math.Copysign(math.MaxFloat64, s)
	}
	return s
}

// sinkBox holds the attached Sink. Each attach allocates a new box, so
// Record can tell a swap (a new box) from a sink closed in place (the
// same box).
type sinkBox struct{ s Sink }

// Recorder is the edge's violation recording front end: it feeds every
// recorded violation into an in-memory MemStore (the queryable log plus
// aggregate statistics) and optionally streams it to a pluggable Sink
// backend. In a production deployment the violation stream is what
// populates dashboards and the data-collection pipeline (paper §2.3). It
// is safe for concurrent use.
//
// The observe path never encodes JSON: Record hands violations to the
// sink (asynchronous backends queue them for a worker goroutine), and
// Flush/Close drain the stream to the backend. Call Flush (or Close)
// before reading the sink's output or its error state.
type Recorder struct {
	store *MemStore

	sink atomic.Pointer[sinkBox]

	// sinkDropped accumulates the drop counts of detached sinks, plus
	// refusals seen at Record time, so SinkDropped survives swaps and
	// Close.
	sinkDropped atomic.Int64

	// streamErr retains the first streaming error across sink swaps, so
	// swapping sinks with StreamToSink cannot silently discard a failure.
	streamErr firstErr
}

func (r *Recorder) saveErr(err error) { r.streamErr.set(err) }

func (r *Recorder) storedErr() error { return r.streamErr.get() }

// NewRecorder returns a recorder over an in-memory MemStore keeping at
// most limit violations (0 or negative = unbounded). Aggregate
// statistics are always complete regardless of the memory bound.
func NewRecorder(limit int) *Recorder {
	return &Recorder{store: NewMemStore(limit)}
}

// StreamToSink attaches a violation backend and takes ownership of it: a
// previously attached sink is closed first (its error retained and its
// drops folded into SinkDropped), and Close or a later swap closes this
// one. Passing nil detaches the current sink. Compose backends with a
// MultiSink before attaching.
func (r *Recorder) StreamToSink(s Sink) {
	var box *sinkBox
	if s != nil {
		box = &sinkBox{s: s}
	}
	if old := r.sink.Swap(box); old != nil {
		r.saveErr(old.s.Close())
		if dc, ok := old.s.(DropCounter); ok {
			r.sinkDropped.Add(dc.Dropped())
		}
	}
}

// Err returns the first error encountered while streaming, if any —
// including errors from sinks since replaced or closed. Because
// sinks may be asynchronous, call Flush first to observe errors from
// already-recorded violations. When the sink has discarded violations
// (see SinkDropped) the count is folded into the error message.
func (r *Recorder) Err() error {
	err := r.storedErr()
	if err == nil {
		if box := r.sink.Load(); box != nil {
			err = box.s.Err()
		}
	}
	if err == nil {
		return nil
	}
	if n := r.SinkDropped(); n > 0 {
		return fmt.Errorf("%w (sink dropped %d violations)", err, n)
	}
	return err
}

// SinkDropped returns how many violations this recorder's streaming path
// has lost: the sinks' own drops (write errors, bounded backends),
// including sinks since replaced or closed, plus refusals observed at
// Record time.
func (r *Recorder) SinkDropped() int64 {
	n := r.sinkDropped.Load()
	if box := r.sink.Load(); box != nil {
		if dc, ok := box.s.(DropCounter); ok {
			n += dc.Dropped()
		}
	}
	return n
}

// Flush blocks until every queued violation has been written to the sink
// and returns the first streaming error, if any. It is a no-op without an
// attached sink.
func (r *Recorder) Flush() error {
	if box := r.sink.Load(); box != nil {
		// Retained here too, in case a third-party sink returns a flush
		// error that its own Err does not keep.
		r.saveErr(box.s.Flush())
	}
	return r.Err()
}

// Close detaches and closes the sink and returns the first streaming
// error. The recorder itself remains usable (and Err still reports the
// sink's error); subsequent violations are no longer streamed. The
// MemStore is untouched.
func (r *Recorder) Close() error {
	r.StreamToSink(nil)
	return r.Err()
}

// Record appends one violation to the store and streams it to the sink.
// It is O(1) even when the bounded log is full and evicting.
func (r *Recorder) Record(v Violation) {
	_ = r.store.Append(v) // MemStore.Append never fails

	if box := r.sink.Load(); box != nil {
		// A record can be refused when a concurrent StreamToSink swap
		// closed this sink between the Load and the call; retry on the
		// replacement so the violation lands in exactly one stream.
		for {
			err := box.s.Record(v)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrSinkClosed) {
				// The sink refused the violation outright: retain the
				// error and account for the loss.
				r.saveErr(err)
				r.sinkDropped.Add(1)
				break
			}
			next := r.sink.Load()
			if next == nil || next == box {
				// A still-attached sink refused the violation and no
				// replacement exists (it was closed in place, e.g. a
				// pool-owned backend after pool.Close): account for the
				// loss instead of hiding it.
				r.sinkDropped.Add(1)
				break
			}
			box = next
		}
	}
}

// Violations returns a copy of the retained violations in arrival order.
func (r *Recorder) Violations() []Violation { return r.store.Query(StoreQuery{}) }

// Query returns retained violations matching q in arrival order.
func (r *Recorder) Query(q StoreQuery) []Violation { return r.store.Query(q) }

// Stats returns aggregate statistics for the named assertion.
func (r *Recorder) Stats(name string) (Stats, bool) { return r.store.Stats(name) }

// TotalFired returns the total number of violations recorded (including
// any dropped from the retained log).
func (r *Recorder) TotalFired() int { return r.store.TotalFired() }

// AssertionNames returns the names of assertions that have fired, sorted.
func (r *Recorder) AssertionNames() []string { return r.store.AssertionNames() }

// Summary renders per-assertion firing counts as a map (assertion name →
// count) for dashboards and tests.
func (r *Recorder) Summary() map[string]int {
	stats := r.store.StatsAll()
	out := make(map[string]int, len(stats))
	for name, st := range stats {
		out[name] = st.Fired
	}
	return out
}
