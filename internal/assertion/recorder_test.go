package assertion

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRecorderStats(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Violation{Assertion: "a", SampleIndex: 1, Severity: 2})
	r.Record(Violation{Assertion: "a", SampleIndex: 5, Severity: 1})
	r.Record(Violation{Assertion: "b", SampleIndex: 3, Severity: 4})

	st, ok := r.Stats("a")
	if !ok {
		t.Fatal("stats for a missing")
	}
	if st.Fired != 2 || st.TotalSev != 3 || st.MaxSev != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FirstSample != 1 || st.LastSample != 5 {
		t.Fatalf("sample range = %+v", st)
	}
	if _, ok := r.Stats("missing"); ok {
		t.Fatal("stats for unknown assertion should be absent")
	}
	if r.TotalFired() != 3 {
		t.Fatalf("TotalFired = %d", r.TotalFired())
	}
	names := r.AssertionNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("AssertionNames = %v", names)
	}
	sum := r.Summary()
	if sum["a"] != 2 || sum["b"] != 1 {
		t.Fatalf("Summary = %v", sum)
	}
}

func TestRecorderBounded(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(Violation{Assertion: "a", SampleIndex: i, Severity: 1})
	}
	vs := r.Violations()
	if len(vs) != 2 {
		t.Fatalf("retained = %d", len(vs))
	}
	if vs[0].SampleIndex != 3 || vs[1].SampleIndex != 4 {
		t.Fatalf("kept wrong entries: %v", vs)
	}
	if got := r.store.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d", got)
	}
	// Aggregates must be complete despite eviction.
	st, _ := r.Stats("a")
	if st.Fired != 5 {
		t.Fatalf("Fired = %d", st.Fired)
	}
}

func TestRecorderJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(0)
	r.StreamToSink(NewJSONLSink(&buf))
	r.Record(Violation{Assertion: "flicker", SampleIndex: 7, Time: 0.25, Severity: 1})
	r.Record(Violation{Assertion: "agree", SampleIndex: 9, Severity: 2})
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var v Violation
	if err := json.Unmarshal([]byte(lines[0]), &v); err != nil {
		t.Fatalf("bad JSONL: %v", err)
	}
	if v.Assertion != "flicker" || v.SampleIndex != 7 || v.Severity != 1 || v.Time != 0.25 {
		t.Fatalf("decoded = %+v", v)
	}
	if r.Err() != nil {
		t.Fatalf("Err = %v", r.Err())
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestRecorderStreamErrorRetained(t *testing.T) {
	r := NewRecorder(0)
	r.StreamToSink(NewJSONLSink(failingWriter{}))
	r.Record(Violation{Assertion: "a", Severity: 1})
	if err := r.Flush(); err == nil {
		t.Fatal("stream error not retained")
	}
	if r.Err() == nil {
		t.Fatal("Err should report the stream error")
	}
	// Recording must continue despite the sink failure.
	r.Record(Violation{Assertion: "a", Severity: 1})
	if r.TotalFired() != 2 {
		t.Fatalf("TotalFired = %d", r.TotalFired())
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close should report the stream error")
	}
}

func TestRecorderSinkDroppedCountsPostErrorLoss(t *testing.T) {
	r := NewRecorder(0)
	r.StreamToSink(NewJSONLSink(failingWriter{}))
	const n = 25
	for i := 0; i < n; i++ {
		r.Record(Violation{Assertion: "a", SampleIndex: i, Severity: 1})
	}
	err := r.Flush()
	if err == nil {
		t.Fatal("Flush should surface the write error")
	}
	// The silent post-error drain must be accounted for: every violation
	// that never reached the writer is counted, and Err says so.
	if got := r.SinkDropped(); got != n {
		t.Fatalf("SinkDropped = %d, want %d", got, n)
	}
	if !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("Err does not mention the dropped violations: %v", err)
	}
	// The count survives detaching the dead sink.
	if err := r.Close(); err == nil {
		t.Fatal("Close should keep reporting the error")
	}
	if got := r.SinkDropped(); got != n {
		t.Fatalf("SinkDropped after Close = %d, want %d", got, n)
	}
}

// TestRecorderSinkDroppedCountsATeeOnce: behind a MultiSink, a violation
// every backend lost is one lost violation, not one per backend — the
// count, and the one Err reports, never exceed what was recorded.
func TestRecorderSinkDroppedCountsATeeOnce(t *testing.T) {
	const n = 25
	for name, healthy := range map[string]Sink{
		"both-failing": NewJSONLSink(failingWriter{}),
		"one-healthy":  NewJSONLSink(&bytes.Buffer{}),
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRecorder(0)
			r.StreamToSink(NewMultiSink(NewJSONLSink(failingWriter{}), healthy))
			for i := 0; i < n; i++ {
				r.Record(Violation{Assertion: "a", SampleIndex: i, Severity: 1})
			}
			err := r.Flush()
			if got := r.SinkDropped(); got != n {
				t.Fatalf("SinkDropped = %d, want %d", got, n)
			}
			if want := fmt.Sprintf("(sink dropped %d violations)", n); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Flush = %v, want an error ending %q", err, want)
			}
			r.Close()
			if got := r.SinkDropped(); got != n {
				t.Fatalf("SinkDropped after Close = %d, want %d", got, n)
			}
		})
	}
}

func TestRecorderSinkDroppedSurvivesSwap(t *testing.T) {
	r := NewRecorder(0)
	r.StreamToSink(NewJSONLSink(failingWriter{}))
	r.Record(Violation{Assertion: "a", Severity: 1})
	var buf bytes.Buffer
	r.StreamToSink(NewJSONLSink(&buf)) // retires the dead sink, folding in its drops
	if got := r.SinkDropped(); got != 1 {
		t.Fatalf("SinkDropped after swap = %d, want 1", got)
	}
	r.Record(Violation{Assertion: "a", Severity: 1})
	if err := r.Close(); err == nil {
		t.Fatal("Close must keep the old sink's error")
	}
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("replacement sink lines = %d, want 1", got)
	}
}

func TestRecorderStreamToSinkBackends(t *testing.T) {
	mem := &captureSink{}
	r := NewRecorder(0)
	r.StreamToSink(mem)
	r.Record(Violation{Assertion: "a", SampleIndex: 1, Severity: 2})
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}
	if got := mem.Len(); got != 1 {
		t.Fatalf("memory sink received %d violations", got)
	}
	// Owned sink: Recorder.Close closes it.
	if err := r.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if err := mem.Record(Violation{}); !errors.Is(err, ErrSinkClosed) {
		t.Fatalf("owned sink not closed by Recorder.Close: %v", err)
	}
}

// refusingSink rejects every Record with a generic (non-closed) error.
type refusingSink struct{ err error }

func (s *refusingSink) Record(Violation) error { return s.err }
func (s *refusingSink) Flush() error           { return nil }
func (s *refusingSink) Close() error           { return nil }
func (s *refusingSink) Err() error             { return nil }

func TestRecorderCountsGenericRecordRefusal(t *testing.T) {
	r := NewRecorder(0)
	r.StreamToSink(&refusingSink{err: errors.New("queue full")})
	r.Record(Violation{Assertion: "a", Severity: 1})
	if got := r.SinkDropped(); got != 1 {
		t.Fatalf("SinkDropped = %d, want 1", got)
	}
	if r.Err() == nil {
		t.Fatal("refusal error must be retained")
	}
}

func TestRecorderCountsRefusalWhenSharedSinkClosed(t *testing.T) {
	mem := &captureSink{}
	r := NewRecorder(0)
	r.StreamToSink(mem)
	mem.Close() // closed in place, e.g. pool.Close on a pool-owned sink
	r.Record(Violation{Assertion: "a", Severity: 1})
	// The attached sink refused the violation with no replacement: the
	// loss must be visible, not silent.
	if got := r.SinkDropped(); got != 1 {
		t.Fatalf("SinkDropped = %d, want 1", got)
	}
	// Stats and the in-memory log are unaffected by the sink refusal.
	if r.TotalFired() != 1 || len(r.Violations()) != 1 {
		t.Fatal("refusal must not affect the in-memory log")
	}
}

func TestRecorderByAssertion(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Violation{Assertion: "a", SampleIndex: 1, Severity: 1})
	r.Record(Violation{Assertion: "b", SampleIndex: 2, Severity: 1})
	r.Record(Violation{Assertion: "a", SampleIndex: 3, Severity: 1})
	got := r.Query(StoreQuery{Assertion: "a"})
	if len(got) != 2 || got[0].SampleIndex != 1 || got[1].SampleIndex != 3 {
		t.Fatalf("Query(a) = %v", got)
	}
	if got := r.Query(StoreQuery{Assertion: "zzz"}); len(got) != 0 {
		t.Fatalf("unknown assertion = %v", got)
	}
}

func TestRecorderRingWraparound(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 8; i++ {
		r.Record(Violation{Assertion: "a", SampleIndex: i, Severity: 1})
	}
	vs := r.Violations()
	if len(vs) != 3 {
		t.Fatalf("retained = %d", len(vs))
	}
	for i, want := range []int{5, 6, 7} {
		if vs[i].SampleIndex != want {
			t.Fatalf("arrival order wrong after wraparound: %v", vs)
		}
	}
	if got := r.store.Dropped(); got != 5 {
		t.Fatalf("Dropped = %d", got)
	}
	by := r.Query(StoreQuery{Assertion: "a"})
	if len(by) != 3 || by[0].SampleIndex != 5 || by[2].SampleIndex != 7 {
		t.Fatalf("Query(a) order wrong after wraparound: %v", by)
	}
}

func TestRecorderFlushAndClose(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(0)
	r.StreamToSink(NewJSONLSink(&buf))
	const n = 2000 // exceed the sink batch size to exercise coalescing
	for i := 0; i < n; i++ {
		r.Record(Violation{Assertion: "a", SampleIndex: i, Severity: 1})
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}
	if got := strings.Count(buf.String(), "\n"); got != n {
		t.Fatalf("lines after Flush = %d, want %d", got, n)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	// After Close the recorder still records, but no longer streams.
	r.Record(Violation{Assertion: "a", SampleIndex: n, Severity: 1})
	if got := strings.Count(buf.String(), "\n"); got != n {
		t.Fatalf("lines after Close = %d, want %d", got, n)
	}
	if r.TotalFired() != n+1 {
		t.Fatalf("TotalFired = %d", r.TotalFired())
	}
}

func TestRecorderSinkDetach(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(0)
	r.StreamToSink(NewJSONLSink(&buf))
	r.Record(Violation{Assertion: "a", Severity: 1})
	r.StreamToSink(nil) // detach closes the previous sink
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("lines after detach = %d, want 1", got)
	}
	r.Record(Violation{Assertion: "a", Severity: 1})
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("detached sink still receiving: %d lines", got)
	}
}

func TestRecorderErrorSurvivesSinkSwap(t *testing.T) {
	r := NewRecorder(0)
	r.StreamToSink(NewJSONLSink(failingWriter{}))
	r.Record(Violation{Assertion: "a", Severity: 1})
	// Swapping the sink must not discard the failed sink's error.
	var buf bytes.Buffer
	r.StreamToSink(NewJSONLSink(&buf))
	if r.Err() == nil {
		t.Fatal("error lost across StreamToSink swap")
	}
	if err := r.Flush(); err == nil {
		t.Fatal("Flush lost the swapped-out sink's error")
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close lost the swapped-out sink's error")
	}
}

func TestRecorderConcurrentStats(t *testing.T) {
	r := NewRecorder(0)
	var wg sync.WaitGroup
	const goroutines, each = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(Violation{Assertion: "a", SampleIndex: i, Severity: 2})
			}
		}(g)
	}
	wg.Wait()
	st, ok := r.Stats("a")
	if !ok {
		t.Fatal("stats missing")
	}
	if st.Fired != goroutines*each {
		t.Fatalf("Fired = %d, want %d", st.Fired, goroutines*each)
	}
	if st.TotalSev != float64(goroutines*each)*2 {
		t.Fatalf("TotalSev = %v", st.TotalSev)
	}
	if st.MaxSev != 2 {
		t.Fatalf("MaxSev = %v", st.MaxSev)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Violation{Assertion: "a", SampleIndex: i, Severity: 1})
				_ = r.TotalFired()
				_ = r.Violations()
			}
		}()
	}
	wg.Wait()
	if r.TotalFired() != 800 {
		t.Fatalf("TotalFired = %d", r.TotalFired())
	}
	if len(r.Violations()) != 100 {
		t.Fatalf("retained = %d", len(r.Violations()))
	}
}
