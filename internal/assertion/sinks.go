package assertion

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// MultiSink fans every violation out to several backends with independent
// error tracking: one failing backend never stops delivery to the healthy
// ones, and Errs reports each backend's first error separately.
type MultiSink struct {
	sinks []Sink

	mu     sync.RWMutex // record (read side) vs close (write side)
	closed bool

	dropped atomic.Int64 // violations a backend refused at Record time

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
	return &MultiSink{sinks: kept, errs: make([]firstErr, len(kept))}
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
			s.dropped.Add(1)
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

// Dropped sums the drop counts of every backend that exposes one, plus
// deliveries a backend refused outright at Record time. Counts are per
// backend delivery: one violation refused by two backends counts twice,
// so for a fan-out the total can exceed the number of violations
// recorded.
func (s *MultiSink) Dropped() int64 {
	n := s.dropped.Load()
	for _, child := range s.sinks {
		if dc, ok := child.(DropCounter); ok {
			n += dc.Dropped()
		}
	}
	return n
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

// rotatingWriter is the io.Writer behind RotatingFileSink: it rotates
// path -> path.1 -> path.2 ... once the current file would exceed
// maxBytes or has been open longer than maxAge, keeping at most keep
// rotated files. Only the sink's worker goroutine writes, so the mutex is
// uncontended; it exists for Close.
type rotatingWriter struct {
	path     string
	maxBytes int64
	keep     int
	maxAge   time.Duration        // 0 disables age-based rotation
	now      func() time.Time     // clock hook for tests
	syncFn   func(*os.File) error // fsync hook for tests; nil = (*os.File).Sync

	mu       sync.Mutex
	f        *os.File
	size     int64
	openedAt time.Time // when the active file started accumulating
}

// syncActive fsyncs the active file. Rotation and Close call it before
// letting go of a file, so every retained file is durable the moment it
// stops being written to. Called with mu held.
func (w *rotatingWriter) syncActive() error {
	if w.f == nil {
		return nil
	}
	if w.syncFn != nil {
		return w.syncFn(w.f)
	}
	return w.f.Sync()
}

// Write splits p — a batch of complete JSONL lines — at line boundaries
// so every retained file respects maxBytes; only a single line larger
// than maxBytes can push a file over the bound. A non-empty file older
// than maxAge is rotated out first, so whichever of the size or age bound
// trips first wins.
func (w *rotatingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, ErrSinkClosed
	}
	if w.maxAge > 0 && w.size > 0 && w.clock().Sub(w.openedAt) >= w.maxAge {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	written := 0
	for {
		if w.size+int64(len(p)) <= w.maxBytes {
			break // the rest fits in the current file
		}
		// Emit the lines that still fit, then rotate. No newline within
		// budget and an empty file means the first line alone exceeds
		// maxBytes: emit it whole (lines are never split mid-line) and
		// keep rotating through the rest of the batch.
		cut := -1
		if budget := w.maxBytes - w.size; budget > 0 {
			cut = bytes.LastIndexByte(p[:budget], '\n')
		}
		if cut < 0 && w.size == 0 {
			if cut = bytes.IndexByte(p, '\n'); cut < 0 {
				break // unterminated tail: write it whole below
			}
		}
		if cut >= 0 {
			n, err := w.f.Write(p[:cut+1])
			w.size += int64(n)
			written += n
			if err != nil {
				return written, err
			}
			p = p[cut+1:]
		}
		if err := w.rotate(); err != nil {
			return written, err
		}
		if len(p) == 0 {
			return written, nil
		}
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	return written + n, err
}

// rotate shifts the retained files by one suffix and reopens path fresh.
// The outgoing file is fsync'd first, so a rotation
// boundary is also a durability boundary. A failed sync or shift aborts
// the rotation: overwriting a still-retained file would silently destroy
// logged violations, so the error surfaces (and latches the sink dead)
// instead. Called with mu held.
func (w *rotatingWriter) rotate() error {
	if err := w.syncActive(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	os.Remove(fmt.Sprintf("%s.%d", w.path, w.keep)) // oldest; may not exist
	for i := w.keep - 1; i >= 1; i-- {
		src := fmt.Sprintf("%s.%d", w.path, i)
		if _, err := os.Stat(src); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // nothing retained at this slot
			}
			return err // can't prove the slot is empty: don't risk clobbering it
		}
		if err := os.Rename(src, fmt.Sprintf("%s.%d", w.path, i+1)); err != nil {
			return err
		}
	}
	if err := os.Rename(w.path, w.path+".1"); err != nil {
		return err
	}
	f, err := os.Create(w.path)
	if err != nil {
		return err
	}
	w.f, w.size, w.openedAt = f, 0, w.clock()
	return nil
}

// clock returns the writer's clock, defaulting to the wall clock so
// directly-constructed writers (tests) need no setup.
func (w *rotatingWriter) clock() time.Time {
	if w.now == nil {
		return time.Now()
	}
	return w.now()
}

func (w *rotatingWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncActive()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// RotatingFileSink is a JSONLSink writing to a rotated file: once the
// current file would exceed the size bound — or, with a RotateConfig
// MaxAge, has been accumulating longer than the age bound — the sink
// renames it to path.1 (shifting older rotations up) and starts fresh, so
// week-long monitoring runs never grow one unbounded JSONL file.
// Coalesced writes are split at line boundaries, so a retained file
// exceeds the size bound only when a single JSONL line does. The
// outgoing file is fsync'd at every rotation boundary and on Close, so
// rotated-out violation logs are durable, not just written.
type RotatingFileSink struct {
	*JSONLSink
	rw *rotatingWriter
}

// RotateConfig configures a RotatingFileSink's rotation policy.
type RotateConfig struct {
	// MaxBytes rotates the active file before a write would push it past
	// this size (<= 0 uses 64 MiB).
	MaxBytes int64
	// MaxAge rotates a non-empty active file once it has been
	// accumulating for this long, checked when the next batch arrives
	// (0 disables age-based rotation). Whichever of size or age trips
	// first wins.
	MaxAge time.Duration
	// Keep is how many rotated files to retain beside the active one
	// (minimum 1; path.1 is the most recent).
	Keep int
}

// NewRotatingFileSink opens a rotating JSONL log at path that rotates
// after maxBytes (<= 0 uses 64 MiB) and keeps at most `keep` rotated
// files (minimum 1) beside the active one. Use NewRotatingFileSinkConfig
// for time-based rotation as well.
func NewRotatingFileSink(path string, maxBytes int64, keep int) (*RotatingFileSink, error) {
	return NewRotatingFileSinkConfig(path, RotateConfig{MaxBytes: maxBytes, Keep: keep})
}

// NewRotatingFileSinkConfig opens a rotating JSONL log at path with the
// given size/age policy. An existing log at path is appended to, never
// truncated, so a restarted deployment keeps the previous run's
// violations (rotating them out once a bound is hit); its age is taken
// from the file's modification time, so the age bound spans restarts.
func NewRotatingFileSinkConfig(path string, cfg RotateConfig) (*RotatingFileSink, error) {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.Keep < 1 {
		cfg.Keep = 1
	}
	if cfg.MaxAge < 0 {
		cfg.MaxAge = 0
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	rw := &rotatingWriter{
		path: path, maxBytes: cfg.MaxBytes, keep: cfg.Keep,
		maxAge: cfg.MaxAge, now: time.Now, f: f,
	}
	rw.openedAt = rw.now()
	if st, err := f.Stat(); err == nil {
		rw.size = st.Size()
		if rw.size > 0 {
			rw.openedAt = st.ModTime()
		}
	}
	return &RotatingFileSink{JSONLSink: NewJSONLSink(rw, 0), rw: rw}, nil
}

// Close drains the worker, closes the active file and returns the first
// error. A file-close failure is retained, so Err keeps reporting it.
func (s *RotatingFileSink) Close() error {
	err := s.JSONLSink.Close()
	if cerr := s.rw.Close(); cerr != nil {
		s.setErr(cerr)
		if err == nil {
			err = cerr
		}
	}
	return err
}
