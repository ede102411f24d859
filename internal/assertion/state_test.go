package assertion

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"omg/internal/obs"
)

// countingStateful is a Stateful assertion that counts how it is called.
// Its Check and its State both answer the window length, so the monitor's
// vectors cannot tell them apart; only the counters can.
type countingStateful struct {
	name      string
	checks    int
	newStates int
	states    []*countingState
}

type countingState struct{ checks, resets int }

func (a *countingStateful) Name() string { return a.name }

func (a *countingStateful) Check(w []Sample) float64 {
	a.checks++
	return float64(len(w))
}

func (a *countingStateful) NewState() State {
	a.newStates++
	st := &countingState{}
	a.states = append(a.states, st)
	return st
}

func (s *countingState) Check(w []Sample) float64 {
	s.checks++
	return float64(len(w))
}

func (s *countingState) Reset() { s.resets++ }

// TestMonitorEvaluatesThroughState checks the seam's wiring: a Monitor
// builds one State per Stateful assertion and evaluates through it,
// Monitor.Reset resets it, a MonitorPool builds one per stream, plain
// assertions and Suite.Evaluate keep calling Check.
func TestMonitorEvaluatesThroughState(t *testing.T) {
	a := &countingStateful{name: "stateful"}
	plainChecks := 0
	plain := New("plain", func(w []Sample) float64 { plainChecks++; return 0 })
	suite := NewSuite(a, plain)

	m := NewMonitor(suite, WithWindowSize(3))
	for i := 0; i < 5; i++ {
		if vec := m.Observe(Sample{Index: i}); vec[0] != float64(min(i+1, 3)) {
			t.Fatalf("sample %d: severity %v, want the window length", i, vec[0])
		}
	}
	if a.newStates != 1 || a.states[0].checks != 5 || a.checks != 0 {
		t.Fatalf("Monitor: %d states, %d State.Check, %d Check; want 1, 5, 0", a.newStates, a.states[0].checks, a.checks)
	}
	if plainChecks != 5 {
		t.Fatalf("plain assertion checked %d times, want 5", plainChecks)
	}
	m.Reset()
	if a.states[0].resets != 1 {
		t.Fatalf("Monitor.Reset reset the state %d times, want 1", a.states[0].resets)
	}
	if vec := m.Observe(Sample{Index: 5}); vec[0] != 1 {
		t.Fatalf("after Reset: severity %v, want 1", vec[0])
	}

	suite.Evaluate([]Sample{{}, {}})
	if a.checks != 1 {
		t.Fatalf("Suite.Evaluate called Check %d times, want 1", a.checks)
	}

	// One shard, so one worker: the counters above are not synchronised.
	pool := NewMonitorPool(suite, WithPoolWindowSize(3), WithShards(1))
	defer pool.Close()
	for i := 0; i < 4; i++ {
		for _, stream := range []string{"a", "b"} {
			if err := pool.Enqueue(Sample{Stream: stream, Index: i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if a.newStates != 3 {
		t.Fatalf("%d states after two pool streams, want 3", a.newStates)
	}
	for _, st := range a.states[1:] {
		if st.checks != 4 || st.resets != 0 {
			t.Fatalf("pool stream state: %d checks, %d resets; want 4, 0", st.checks, st.resets)
		}
	}
}

// assertionErrorCounts reads omg_assertion_errors_total from the default
// registry's page.
func assertionErrorCounts(t *testing.T) map[string]float64 {
	t.Helper()
	var page strings.Builder
	obs.Default().WriteMetrics(&page)
	out := make(map[string]float64)
	for _, kind := range []string{"nan", "negative", "inf"} {
		series := `omg_assertion_errors_total{kind="` + kind + `"} `
		for _, line := range strings.Split(page.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, series); ok {
				var v float64
				if _, err := fmt.Sscan(rest, &v); err != nil {
					t.Fatalf("series %s: %v", line, err)
				}
				out[kind] = v
			}
		}
		if _, ok := out[kind]; !ok {
			t.Fatalf("no series %q on the metrics page", series)
		}
	}
	return out
}

// TestEvaluateIntoCountsClamps checks that every clamped severity is
// counted by kind, on Suite.EvaluateInto and on the Monitor path, and
// that an abstention (0 or -0) is not.
func TestEvaluateIntoCountsClamps(t *testing.T) {
	sevs := []float64{math.NaN(), -1, math.Inf(1), math.Copysign(0, -1), 0, 2}
	var as []Assertion
	for i, sev := range sevs {
		as = append(as, New(fmt.Sprintf("a%d", i), func([]Sample) float64 { return sev }))
	}
	suite := NewSuite(as...)
	want := Vector{0, 0, math.MaxFloat64, 0, 0, 2}

	before := assertionErrorCounts(t)
	vec := suite.EvaluateInto(nil, []Sample{{}})
	m := NewMonitor(suite)
	mvec := m.Observe(Sample{})
	after := assertionErrorCounts(t)
	for i := range want {
		if vec[i] != want[i] || mvec[i] != want[i] {
			t.Fatalf("severity %v read as %v (Suite) and %v (Monitor), want %v", sevs[i], vec[i], mvec[i], want[i])
		}
	}
	for _, kind := range []string{"nan", "negative", "inf"} {
		if d := after[kind] - before[kind]; d != 2 {
			t.Errorf("omg_assertion_errors_total{kind=%q} rose by %v, want 2 (one Suite, one Monitor)", kind, d)
		}
	}
}
