package assertion

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// captureSink is a synchronous in-memory Sink for tests: it keeps every
// violation it accepts and refuses with ErrSinkClosed after Close.
type captureSink struct {
	mu     sync.Mutex
	vs     []Violation
	closed bool
}

func (s *captureSink) Record(v Violation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSinkClosed
	}
	s.vs = append(s.vs, v)
	return nil
}
func (s *captureSink) Flush() error { return nil }
func (s *captureSink) Close() error { s.mu.Lock(); s.closed = true; s.mu.Unlock(); return nil }
func (s *captureSink) Err() error   { return nil }
func (s *captureSink) Len() int     { s.mu.Lock(); defer s.mu.Unlock(); return len(s.vs) }

// recordN pushes n violations of the named assertion into s.
func recordN(t *testing.T, s Sink, name string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Record(Violation{Assertion: name, SampleIndex: i, Severity: 1}); err != nil {
			t.Fatalf("Record(%d) = %v", i, err)
		}
	}
}

func TestJSONLSinkCountsPostErrorDrops(t *testing.T) {
	s := NewJSONLSink(failingWriter{})
	const n = 700 // several coalesced batches
	recordN(t, s, "a", n)
	if err := s.Flush(); err == nil {
		t.Fatal("Flush should surface the write error")
	}
	// Nothing reached the writer, so every accepted violation must be
	// accounted for — the batch whose write failed included.
	if got := s.Dropped(); got != n {
		t.Fatalf("Dropped = %d, want %d", got, n)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close should surface the write error")
	}
}

// partialWriter lands exactly one line, reports an error for that write,
// and fails everything afterwards — a disk filling mid-batch.
type partialWriter struct{ failed bool }

func (w *partialWriter) Write(p []byte) (int, error) {
	if w.failed {
		return 0, errors.New("dead")
	}
	w.failed = true
	if i := bytes.IndexByte(p, '\n'); i >= 0 {
		return i + 1, errors.New("failed after one line")
	}
	return 0, errors.New("failed")
}

func TestJSONLSinkPartialWriteNotOvercounted(t *testing.T) {
	s := NewJSONLSink(&partialWriter{})
	const n = 5
	recordN(t, s, "a", n)
	if err := s.Flush(); err == nil {
		t.Fatal("Flush should surface the write error")
	}
	// Exactly one line reached the writer, however the worker batched:
	// dropped + written must equal recorded, never overcount.
	if got := s.Dropped(); got != n-1 {
		t.Fatalf("Dropped = %d, want %d (one line was durably written)", got, n-1)
	}
	s.Close()
}

func TestJSONLSinkSurvivesUnmarshalableViolation(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	// NaN severity cannot be marshalled; the violation is dropped and
	// counted, but the stream must stay alive for the next violation.
	if err := s.Record(Violation{Assertion: "bad", Severity: math.NaN()}); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(Violation{Assertion: "good", SampleIndex: 1, Severity: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("encode error must be retained")
	}
	if got := s.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	if !strings.Contains(buf.String(), `"good"`) {
		t.Fatalf("healthy violation lost after encode error:\n%s", buf.String())
	}
	s.Close()
}

func TestJSONLSinkNoDropsOnHealthyWriter(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	recordN(t, s, "a", 100)
	if err := s.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if got := s.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d on healthy writer", got)
	}
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != 100 {
		t.Fatalf("lines = %d", got)
	}
}

func TestMultiSinkKeepsHealthyBackendsAlive(t *testing.T) {
	healthy := &captureSink{}
	dead := NewJSONLSink(failingWriter{})
	s := NewMultiSink(dead, healthy)

	recordN(t, s, "a", 50)
	if err := s.Flush(); err == nil {
		t.Fatal("Flush should report the dead backend's error")
	}
	// The healthy backend must have received every violation despite the
	// dead sibling.
	if got := healthy.Len(); got != 50 {
		t.Fatalf("healthy backend received %d violations, want 50", got)
	}
	errs := s.Errs()
	if len(errs) != 2 {
		t.Fatalf("Errs len = %d", len(errs))
	}
	if errs[0] == nil {
		t.Fatal("dead backend's error not tracked")
	}
	if errs[1] != nil {
		t.Fatalf("healthy backend blamed: %v", errs[1])
	}
	if s.Dropped() != dead.Dropped() {
		t.Fatalf("Dropped = %d, want the dead backend's %d", s.Dropped(), dead.Dropped())
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close should report the dead backend's error")
	}
	// Close must have reached every child.
	if err := healthy.Record(Violation{}); !errors.Is(err, ErrSinkClosed) {
		t.Fatalf("healthy child not closed: %v", err)
	}
	if err := s.Record(Violation{}); !errors.Is(err, ErrSinkClosed) {
		t.Fatalf("Record after Close = %v, want ErrSinkClosed", err)
	}
}

func TestMultiSinkFanOut(t *testing.T) {
	a, b := &captureSink{}, &captureSink{}
	s := NewMultiSink(a, b)
	recordN(t, s, "x", 7)
	if err := s.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if a.Len() != 7 || b.Len() != 7 {
		t.Fatalf("fan-out incomplete: %d / %d", a.Len(), b.Len())
	}
}

func TestNilBackendsDoNotPanic(t *testing.T) {
	// Mis-wired compositions must degrade gracefully, not crash a shard
	// worker on the observe path.
	mem := &captureSink{}
	m := NewMultiSink(nil, mem, nil)
	recordN(t, m, "a", 3)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 3 {
		t.Fatalf("real backend got %d violations, want 3", mem.Len())
	}
	// Each nil stand-in lost every violation, and counted it; the tee
	// reports the largest one backend's loss.
	if got := m.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3 (nil backends must count their losses)", got)
	}
}

// TestSinkFlushCloseSemantics locks down the shared Sink contract across
// every backend: Record concurrent with Flush is race-free (-race),
// Flush-then-read is consistent, Close is idempotent, and Record after
// Close returns ErrSinkClosed.
func TestSinkFlushCloseSemantics(t *testing.T) {
	backends := map[string]func(t *testing.T) Sink{
		"jsonl": func(t *testing.T) Sink { return newJSONLSink(&bytes.Buffer{}, 8) },
		"multi": func(t *testing.T) Sink {
			return NewMultiSink(&captureSink{}, newJSONLSink(&bytes.Buffer{}, 8))
		},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						if err := s.Record(Violation{
							Assertion:   fmt.Sprintf("a-%d", g),
							SampleIndex: i,
							Severity:    1,
						}); err != nil {
							t.Errorf("Record: %v", err)
							return
						}
					}
				}(g)
			}
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						if err := s.Flush(); err != nil {
							t.Errorf("Flush: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if err := s.Flush(); err != nil {
				t.Fatalf("final Flush = %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close = %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("second Close = %v", err)
			}
			if err := s.Record(Violation{Assertion: "late"}); !errors.Is(err, ErrSinkClosed) {
				t.Fatalf("Record after Close = %v, want ErrSinkClosed", err)
			}
		})
	}
}
