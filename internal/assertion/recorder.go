package assertion

import (
	"errors"
	"fmt"
	"math"
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

// statsCell is the internal lock-free accumulator behind Stats. Floats are
// stored as IEEE-754 bit patterns and updated with CAS loops so concurrent
// recorders never contend on a lock for the aggregate counters.
//
// maxSev is seeded with -Inf (see newStatsCell), not the zero bits (+0.0):
// an assertion whose severities are all negative must report its true
// maximum, and a +0.0 seed would absorb every negative update. The
// sentinel never escapes: snapshot normalises a still-at-seed maxSev to 0.
type statsCell struct {
	fired    atomic.Int64
	totalSev atomic.Uint64 // float64 bits
	maxSev   atomic.Uint64 // float64 bits
	first    atomic.Int64
	last     atomic.Int64
}

// negInfBits is the maxSev seed: below every real severity.
var negInfBits = math.Float64bits(math.Inf(-1))

func newStatsCell() *statsCell {
	c := &statsCell{}
	c.maxSev.Store(negInfBits)
	return c
}

func (c *statsCell) snapshot() Stats {
	maxSev := math.Float64frombits(c.maxSev.Load())
	if math.IsInf(maxSev, -1) {
		maxSev = 0 // nothing fired yet; don't leak the seed
	}
	return Stats{
		Fired:       int(c.fired.Load()),
		TotalSev:    math.Float64frombits(c.totalSev.Load()),
		MaxSev:      maxSev,
		LastSample:  int(c.last.Load()),
		FirstSample: int(c.first.Load()),
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

// atomicAddFloat adds x to the float64 stored as bits in a, saturating
// like AddSeverity.
func atomicAddFloat(a *atomic.Uint64, x float64) {
	for {
		old := a.Load()
		next := math.Float64bits(AddSeverity(math.Float64frombits(old), x))
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// atomicMaxFloat raises the float64 stored as bits in a to at least x.
func atomicMaxFloat(a *atomic.Uint64, x float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= x {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(x)) {
			return
		}
	}
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
