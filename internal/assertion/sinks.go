package assertion

import (
	"sync"
	"sync/atomic"
)

// MultiSink fans every violation out to several backends with independent
// error tracking: one failing backend never stops delivery to the healthy
// ones, and Errs reports each backend's first error separately.
type MultiSink struct {
	sinks []Sink

	mu     sync.RWMutex // record (read side) vs close (write side)
	closed bool

	refused []atomic.Int64 // violations each backend refused at Record time, index-aligned with sinks

	errs []firstErr // first noted error per backend, index-aligned with sinks
}

// NewMultiSink returns a sink delivering every violation to each of the
// given backends. A nil backend is replaced by a counting no-op sink, so
// Errs stays index-aligned with the constructor's arguments. The
// MultiSink owns its backends: Close closes every one.
func NewMultiSink(sinks ...Sink) *MultiSink {
	kept := make([]Sink, len(sinks))
	for i, s := range sinks {
		if s == nil {
			s = &nopSink{}
		}
		kept[i] = s
	}
	return &MultiSink{sinks: kept, refused: make([]atomic.Int64, len(kept)), errs: make([]firstErr, len(kept))}
}

func (s *MultiSink) noteErr(i int, err error) { s.errs[i].set(err) }

// Record delivers v to every backend. A backend's refusal (including its
// own independent Close) is tracked against that backend only; Record
// itself fails only after the MultiSink has been closed.
func (s *MultiSink) Record(v Violation) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrSinkClosed
	}
	for i, child := range s.sinks {
		if err := child.Record(v); err != nil {
			s.noteErr(i, err)
			s.refused[i].Add(1)
		}
	}
	return nil
}

// Flush flushes every backend and returns the first error across them.
func (s *MultiSink) Flush() error {
	for i, child := range s.sinks {
		s.noteErr(i, child.Flush())
	}
	return s.Err()
}

// Close closes every backend — all of them, even when an early one fails —
// and returns the first error across them.
func (s *MultiSink) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		for i, child := range s.sinks {
			s.noteErr(i, child.Close())
		}
	}
	return s.Err()
}

// Err returns the first error any backend has reported, if any.
func (s *MultiSink) Err() error {
	for _, err := range s.Errs() {
		if err != nil {
			return err
		}
	}
	return nil
}

// Errs returns each backend's first error, index-aligned with the
// constructor's arguments — the independent error tracking that lets a
// caller tell a dead file sink from a healthy exporter beside it.
func (s *MultiSink) Errs() []error {
	out := make([]error, len(s.sinks))
	for i, child := range s.sinks {
		if out[i] = s.errs[i].get(); out[i] == nil {
			out[i] = child.Err()
		}
	}
	return out
}

// Dropped returns the largest loss of any one backend: its own drop count,
// when it exposes one, plus the deliveries it refused at Record time. A
// violation lost by every backend counts once, so the total never exceeds
// the violations recorded; a caller that needs each backend's loss reads
// the backends themselves.
func (s *MultiSink) Dropped() int64 {
	var most int64
	for i, child := range s.sinks {
		n := s.refused[i].Load()
		if dc, ok := child.(DropCounter); ok {
			n += dc.Dropped()
		}
		most = max(most, n)
	}
	return most
}

// nopSink discards — and counts — everything; it stands in for nil
// backends so a mis-wired composition surfaces as a drop count instead
// of a panic on the observe path.
type nopSink struct{ dropped atomic.Int64 }

func (s *nopSink) Record(Violation) error { s.dropped.Add(1); return nil }
func (s *nopSink) Flush() error           { return nil }
func (s *nopSink) Close() error           { return nil }
func (s *nopSink) Err() error             { return nil }
func (s *nopSink) Dropped() int64         { return s.dropped.Load() }
