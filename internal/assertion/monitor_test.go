package assertion

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMonitorWindowing(t *testing.T) {
	var seen []int
	a := New("window", func(w []Sample) float64 {
		seen = append(seen, len(w))
		return 0
	})
	m := NewMonitor(NewSuite(a), WithWindowSize(3))
	for i := 0; i < 5; i++ {
		m.Observe(Sample{Index: i})
	}
	want := []int{1, 2, 3, 3, 3}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("window sizes = %v, want %v", seen, want)
		}
	}
	if m.Observed() != 5 {
		t.Fatalf("Observed = %d", m.Observed())
	}
}

func TestMonitorWindowOrdering(t *testing.T) {
	var lastWindow []Sample
	a := New("order", func(w []Sample) float64 {
		lastWindow = append([]Sample(nil), w...)
		return 0
	})
	m := NewMonitor(NewSuite(a), WithWindowSize(4))
	for i := 10; i < 16; i++ {
		m.Observe(Sample{Index: i})
	}
	if len(lastWindow) != 4 {
		t.Fatalf("window len = %d", len(lastWindow))
	}
	for i := 1; i < len(lastWindow); i++ {
		if lastWindow[i].Index <= lastWindow[i-1].Index {
			t.Fatalf("window not ordered: %v", lastWindow)
		}
	}
	if lastWindow[len(lastWindow)-1].Index != 15 {
		t.Fatalf("last window element index = %d, want 15", lastWindow[len(lastWindow)-1].Index)
	}
}

func TestMonitorRecordsViolations(t *testing.T) {
	a := New("fires-on-even", func(w []Sample) float64 {
		if w[len(w)-1].Index%2 == 0 {
			return 2.5
		}
		return 0
	})
	m := NewMonitor(NewSuite(a))
	for i := 0; i < 6; i++ {
		m.Observe(Sample{Index: i, Time: float64(i)})
	}
	rec := m.Recorder()
	if got := rec.TotalFired(); got != 3 {
		t.Fatalf("TotalFired = %d", got)
	}
	vs := rec.Query(StoreQuery{Assertion: "fires-on-even"})
	if len(vs) != 3 {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].SampleIndex != 0 || vs[1].SampleIndex != 2 || vs[2].SampleIndex != 4 {
		t.Fatalf("violation indices wrong: %v", vs)
	}
	if vs[1].Severity != 2.5 {
		t.Fatalf("severity = %v", vs[1].Severity)
	}
}

func TestMonitorActions(t *testing.T) {
	a := New("sev", func(w []Sample) float64 {
		return float64(w[len(w)-1].Index)
	})
	m := NewMonitor(NewSuite(a))

	var anyCount, highCount, namedCount, otherCount int
	m.OnViolation(1, func(Violation) { anyCount++ })
	m.OnViolation(5, func(Violation) { highCount++ })
	m.OnAssertion("sev", 1, func(Violation) { namedCount++ })
	m.OnAssertion("unrelated", 0, func(Violation) { otherCount++ })

	for i := 0; i < 8; i++ {
		m.Observe(Sample{Index: i})
	}
	// Severities 1..7 are violations (index 0 gives severity 0 = abstain).
	if anyCount != 7 {
		t.Fatalf("anyCount = %d", anyCount)
	}
	if highCount != 3 { // severities 5,6,7
		t.Fatalf("highCount = %d", highCount)
	}
	if namedCount != 7 {
		t.Fatalf("namedCount = %d", namedCount)
	}
	if otherCount != 0 {
		t.Fatalf("otherCount = %d", otherCount)
	}
}

func TestMonitorObserveReturnsVector(t *testing.T) {
	m := NewMonitor(NewSuite(constAssertion("a", 0.5), constAssertion("b", 0)))
	v := m.Observe(Sample{Index: 1})
	if len(v) != 2 || v[0] != 0.5 || v[1] != 0 {
		t.Fatalf("vector = %v", v)
	}
}

func TestMonitorReset(t *testing.T) {
	var lastLen int
	a := New("len", func(w []Sample) float64 {
		lastLen = len(w)
		return 0
	})
	m := NewMonitor(NewSuite(a), WithWindowSize(10))
	m.Observe(Sample{Index: 0})
	m.Observe(Sample{Index: 1})
	m.Reset()
	m.Observe(Sample{Index: 2})
	if lastLen != 1 {
		t.Fatalf("window after reset = %d, want 1", lastLen)
	}
	// Violations must survive reset.
	if m.Observed() != 3 {
		t.Fatalf("Observed after reset = %d", m.Observed())
	}
}

func TestMonitorConcurrentObserve(t *testing.T) {
	a := New("always", func([]Sample) float64 { return 1 })
	m := NewMonitor(NewSuite(a), WithWindowSize(4))
	var wg sync.WaitGroup
	const n = 50
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				m.Observe(Sample{Index: g*n + i})
			}
		}(g)
	}
	wg.Wait()
	if m.Observed() != 4*n {
		t.Fatalf("Observed = %d", m.Observed())
	}
	if got := m.Recorder().TotalFired(); got != 4*n {
		t.Fatalf("TotalFired = %d", got)
	}
}

func TestMonitorConcurrentObserveAndRegister(t *testing.T) {
	// Run with -race: registering actions while samples are observed must
	// be safe, and actions registered before the stream starts must all
	// fire.
	a := New("always", func([]Sample) float64 { return 1 })
	m := NewMonitor(NewSuite(a))
	var pre atomic.Int64
	m.OnViolation(0.5, func(Violation) { pre.Add(1) })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	regDone := make(chan struct{})
	go func() {
		defer close(regDone)
		for i := 0; i < 50; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.OnViolation(10, func(Violation) {})         // never fires (severity is 1)
			m.OnAssertion("other", 0, func(Violation) {}) // never fires (wrong name)
		}
	}()
	const n = 200
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				m.Observe(Sample{Index: g*n + i})
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-regDone
	if pre.Load() != 4*n {
		t.Fatalf("pre-registered action fired %d times, want %d", pre.Load(), 4*n)
	}
}

func TestMonitorWindowSizeMinimum(t *testing.T) {
	var lastLen int
	a := New("len", func(w []Sample) float64 { lastLen = len(w); return 0 })
	m := NewMonitor(NewSuite(a), WithWindowSize(0)) // ignored, keeps default
	for i := 0; i < 20; i++ {
		m.Observe(Sample{Index: i})
	}
	if lastLen != 16 {
		t.Fatalf("default window = %d, want 16", lastLen)
	}
}

func TestMonitorActionMayReenterMonitor(t *testing.T) {
	// Actions run outside the monitor's internal lock (as they did before
	// the ring-buffer rewrite), so an action may call back into the
	// monitor — e.g. reset the window after a severe violation — without
	// deadlocking.
	a := New("sev", func(w []Sample) float64 {
		return float64(w[len(w)-1].Index)
	})
	m := NewMonitor(NewSuite(a), WithWindowSize(8))
	var resets int
	m.OnViolation(5, func(Violation) {
		m.Reset()
		resets++
	})
	var lastLen int
	m.OnViolation(0.1, func(Violation) { lastLen = m.Observed() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			m.Observe(Sample{Index: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("re-entrant action deadlocked Observe")
	}
	if resets != 3 { // severities 5, 6, 7
		t.Fatalf("reset action fired %d times, want 3", resets)
	}
	if lastLen != 8 {
		t.Fatalf("Observed inside action = %d, want 8", lastLen)
	}
}

// TestNaNSeverityDoesNotFire: a Check returning NaN reads as "did not
// fire", like a negative severity. Through a Monitor and through a
// MonitorPool streaming JSONL, nothing of it is recorded, the edge stats
// stay finite and the sink drops nothing; a well-behaved assertion beside
// it records as usual.
func TestNaNSeverityDoesNotFire(t *testing.T) {
	suite := func() *Suite {
		return NewSuite(
			New("nan", func([]Sample) float64 { return math.NaN() }),
			New("even", func(w []Sample) float64 { return float64(1 - w[len(w)-1].Index%2) }),
		)
	}
	check := func(t *testing.T, rec *Recorder) {
		t.Helper()
		if _, ok := rec.Stats("nan"); ok {
			t.Fatal("the NaN assertion has stats: it fired")
		}
		st, ok := rec.Stats("even")
		if !ok || st.Fired != 2 || math.IsNaN(st.TotalSev) || math.IsNaN(st.MaxSev) || st.TotalSev != 2 {
			t.Fatalf("even stats = %+v (ok %v), want 2 finite firings", st, ok)
		}
		if got := rec.TotalFired(); got != 2 {
			t.Fatalf("TotalFired = %d, want 2", got)
		}
	}

	t.Run("monitor", func(t *testing.T) {
		m := NewMonitor(suite())
		for i := 0; i < 4; i++ {
			if vec := m.Observe(Sample{Index: i}); vec[0] != 0 {
				t.Fatalf("sample %d: NaN assertion's severity = %v, want 0", i, vec[0])
			}
		}
		check(t, m.Recorder())
	})

	t.Run("pool-jsonl", func(t *testing.T) {
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		pool := NewMonitorPool(suite(), WithShards(2), WithPoolSink(sink))
		for i := 0; i < 4; i++ {
			if err := pool.Enqueue(Sample{Stream: "cam", Index: i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := pool.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		check(t, pool.Recorder())
		if sink.Dropped() != 0 || pool.Recorder().SinkDropped() != 0 {
			t.Fatalf("sink dropped %d, recorder counts %d sink drops; want 0", sink.Dropped(), pool.Recorder().SinkDropped())
		}
		if lines := strings.Count(buf.String(), "\n"); lines != 2 || strings.Contains(buf.String(), `"nan"`) {
			t.Fatalf("JSONL holds %d lines, want the 2 even firings:\n%s", lines, buf.String())
		}
	})
}

// TestInfSeverityClampsToMaxFloat: a Check returning +Inf fires at
// math.MaxFloat64, the largest severity every encoder can write. Through
// a Monitor and through a MonitorPool streaming JSONL, every firing is
// recorded at MaxFloat64, the edge stats stay finite (the severity sum
// saturates) and the sink neither drops nor errors.
func TestInfSeverityClampsToMaxFloat(t *testing.T) {
	suite := func() *Suite {
		return NewSuite(New("inf", func([]Sample) float64 { return math.Inf(1) }))
	}
	check := func(t *testing.T, rec *Recorder) {
		t.Helper()
		st, ok := rec.Stats("inf")
		if !ok || st.Fired != 4 || st.MaxSev != math.MaxFloat64 || st.TotalSev != math.MaxFloat64 {
			t.Fatalf("inf stats = %+v (ok %v), want 4 firings at MaxFloat64", st, ok)
		}
		for _, v := range rec.Violations() {
			if v.Severity != math.MaxFloat64 {
				t.Fatalf("recorded severity %v, want MaxFloat64", v.Severity)
			}
		}
	}

	t.Run("monitor", func(t *testing.T) {
		m := NewMonitor(suite())
		for i := 0; i < 4; i++ {
			if vec := m.Observe(Sample{Index: i}); vec[0] != math.MaxFloat64 {
				t.Fatalf("sample %d: severity = %v, want MaxFloat64", i, vec[0])
			}
		}
		check(t, m.Recorder())
	})

	t.Run("pool-jsonl", func(t *testing.T) {
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		pool := NewMonitorPool(suite(), WithShards(2), WithPoolSink(sink))
		for i := 0; i < 4; i++ {
			if err := pool.Enqueue(Sample{Stream: "cam", Index: i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := pool.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		check(t, pool.Recorder())
		if err := pool.Recorder().Err(); err != nil {
			t.Fatalf("recorder Err = %v", err)
		}
		if sink.Dropped() != 0 || pool.Recorder().SinkDropped() != 0 {
			t.Fatalf("sink dropped %d, recorder counts %d sink drops; want 0", sink.Dropped(), pool.Recorder().SinkDropped())
		}
		if got := strings.Count(buf.String(), `"severity":1.7976931348623157e+308`); got != 4 {
			t.Fatalf("JSONL holds %d MaxFloat64 firings, want 4:\n%s", got, buf.String())
		}
	})
}
