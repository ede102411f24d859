package assertion

import (
	"io"
	"testing"
	"time"

	"omg/internal/obs"
)

// The alloc-regression tests assert the hot path's allocation budget under
// go test, so a regression fails CI instead of silently drifting. They are
// skipped under -race (instrumentation allocates); the CI alloc-gate job
// runs them without -race and fails when it sees a skip.

// TestAllocRegressionMonitorObserve asserts the tentpole invariant: a
// steady-state Observe with no firing assertions performs zero heap
// allocations — fixed window ring, reused scratch view, reused severity
// vector, copy-on-write action snapshot.
func TestAllocRegressionMonitorObserve(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	m := NewMonitor(NewSuite(
		New("noop", func([]Sample) float64 { return 0 }),
		New("len", func(w []Sample) float64 { return -float64(len(w)) }), // clamped to 0, never fires
	), WithWindowSize(8))
	m.OnViolation(0.5, func(Violation) {}) // an action list must not cost the quiet path anything
	for i := 0; i < 64; i++ {              // fill the ring past wrap-around
		m.Observe(Sample{Index: i, Time: float64(i)})
	}
	i := 64
	allocs := testing.AllocsPerRun(1000, func() {
		m.Observe(Sample{Index: i, Time: float64(i)})
		i++
	})
	if allocs != 0 {
		t.Fatalf("Monitor.Observe allocated %.1f times per sample, want 0", allocs)
	}
}

// TestAllocRegressionMonitorObserveInstrumented re-asserts the zero-
// allocation invariant with the PR-8 stage timer forced on for every
// observation (sampling 1-in-1, not the 1-in-64 default): the histogram
// path — time.Now, bucket index, atomic adds — must stay off the heap too.
func TestAllocRegressionMonitorObserveInstrumented(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	obs.SetHotSampleEvery(1)
	defer obs.SetHotSampleEvery(64)
	before := observeHist.Count()
	m := NewMonitor(NewSuite(
		New("noop", func([]Sample) float64 { return 0 }),
		New("len", func(w []Sample) float64 { return -float64(len(w)) }),
	), WithWindowSize(8)) // samples every Observe: rate snapshot at construction
	for i := 0; i < 64; i++ {
		m.Observe(Sample{Index: i, Time: float64(i)})
	}
	i := 64
	allocs := testing.AllocsPerRun(1000, func() {
		m.Observe(Sample{Index: i, Time: float64(i)})
		i++
	})
	if allocs != 0 {
		t.Fatalf("instrumented Monitor.Observe allocated %.1f times per sample, want 0", allocs)
	}
	if observeHist.Count() <= before {
		t.Fatal("observe histogram recorded nothing despite 1-in-1 sampling")
	}
}

// TestAllocRegressionHistogramRecord asserts the instrumentation
// primitive itself — the call every stage timer bottoms out in — is
// allocation-free.
func TestAllocRegressionHistogramRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	h := obs.NewRegistry().NewHistogram("alloc_test_seconds", "alloc gate")
	d := 500 * time.Nanosecond
	allocs := testing.AllocsPerRun(1000, func() { h.Record(d) })
	if allocs != 0 {
		t.Fatalf("obs.Histogram.Record allocated %.1f times per call, want 0", allocs)
	}
}

// TestAllocRegressionJSONLSinkRecord bounds the producer side of the JSONL
// sink at one allocation per recorded violation; today it is zero (a
// channel send of an inline value), the ≤ 1 budget leaves room for
// harmless drift without letting reflection or per-record buffers back in.
func TestAllocRegressionJSONLSinkRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	s := newJSONLSink(io.Discard, 8192)
	defer s.Close()
	v := Violation{Assertion: "alloc", Stream: "s", SampleIndex: 1, Time: 0.5, Severity: 1}
	for i := 0; i < 4096; i++ { // warm the worker's encode buffer
		if err := s.Record(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Record(v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("JSONLSink.Record allocated %.1f times per violation, want <= 1", allocs)
	}
}

// TestAllocRegressionAppendViolationJSON asserts the reflection-free
// encoder allocates nothing when the destination buffer has capacity.
func TestAllocRegressionAppendViolationJSON(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	buf := make([]byte, 0, 512)
	v := Violation{Assertion: "alloc-enc", Stream: "cam-0", SampleIndex: 7, Time: 0.23, Severity: 1.5, IngestUnix: 1753800000}
	allocs := testing.AllocsPerRun(1000, func() {
		out, err := AppendViolationJSON(buf, v)
		if err != nil || len(out) == 0 {
			t.Fatal("encode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendViolationJSON allocated %.1f times per violation, want 0", allocs)
	}
}

// TestAllocRegressionViolationRecord asserts both directions of the
// binary record codec allocate nothing in steady state: encoding into a
// buffer with capacity, and decoding a record — what a store's replay
// does a million times — whose names the interner has already seen.
func TestAllocRegressionViolationRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	buf := make([]byte, 0, 512)
	v := Violation{Assertion: "alloc-enc", Stream: "cam-0", SampleIndex: 7, Time: 0.23, Severity: 1.5, IngestUnix: 1753800000}
	var in Interner
	var back Violation
	body, err := AppendViolationRecord(buf, &v)
	if err != nil || decodeRecord(body, &back, &in) != nil { // interns both names
		t.Fatal("warm-up round trip failed")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		body, err := AppendViolationRecord(buf, &v)
		if err != nil || decodeRecord(body, &back, &in) != nil || back != v {
			t.Fatal("round trip failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("the record round trip allocated %.1f times per violation, want 0", allocs)
	}
}

// TestAllocRegressionSuiteEvaluateInto asserts the reusable-vector
// evaluation entry point allocates nothing once dst has capacity.
func TestAllocRegressionSuiteEvaluateInto(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	s := NewSuite(
		New("a", func([]Sample) float64 { return 0 }),
		New("b", func([]Sample) float64 { return 1 }),
	)
	window := []Sample{{Index: 0}, {Index: 1}}
	vec := make(Vector, s.Len())
	allocs := testing.AllocsPerRun(1000, func() {
		vec = s.EvaluateInto(vec, window)
	})
	if allocs != 0 {
		t.Fatalf("Suite.EvaluateInto allocated %.1f times per call, want 0", allocs)
	}
}

// TestAllocRegressionRecorderRecord asserts the firing path's budget: a
// steady-state Record of an assertion the store already knows, into a
// full bounded ring that evicts on every call, performs zero heap
// allocations — the statistics fold updates its entry in place and the
// ring reuses its slot and name ids.
func TestAllocRegressionRecorderRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	r := NewRecorder(256)
	v := Violation{Assertion: "a", Stream: "cam0", Severity: 0.5}
	for i := 0; i < 1024; i++ { // fill the ring past wrap-around
		v.SampleIndex, v.Time = i, float64(i)
		r.Record(v)
	}
	i := 1024
	allocs := testing.AllocsPerRun(1000, func() {
		v.SampleIndex, v.Time = i, float64(i)
		r.Record(v)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Recorder.Record allocated %.1f times per violation, want 0", allocs)
	}
}
