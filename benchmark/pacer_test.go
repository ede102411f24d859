package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on, or when the test says an
// operation took time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestPacerDueTimesDoNotDrift(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p := &pacer{start: clk.now, period: 10 * time.Millisecond, ticks: 6, now: clk.Now, sleep: clk.Sleep}
	// The operation after tick 1 stalls for 25 ms: ticks 2 and 3 are then
	// already due, and must be issued at once with their ORIGINAL due times.
	work := []time.Duration{2, 25, 1, 1, 1, 1}
	var gotDue, issuedAt []time.Duration
	for {
		i, due, ok := p.wait()
		if !ok {
			break
		}
		gotDue = append(gotDue, due.Sub(p.start))
		issuedAt = append(issuedAt, clk.now.Sub(p.start))
		clk.Sleep(work[i] * time.Millisecond)
	}
	wantDue := []time.Duration{0, 10, 20, 30, 40, 50}
	wantIssued := []time.Duration{0, 10, 35, 36, 40, 50}
	for i := range wantDue {
		if gotDue[i] != wantDue[i]*time.Millisecond {
			t.Errorf("tick %d due at %v, want %v", i, gotDue[i], wantDue[i]*time.Millisecond)
		}
		if issuedAt[i] != wantIssued[i]*time.Millisecond {
			t.Errorf("tick %d issued at %v, want %v", i, issuedAt[i], wantIssued[i]*time.Millisecond)
		}
	}
	// Tick 2 was due at 20 and went out at 35: that is the lateness an
	// operation timed from its due time has to carry.
	if p.maxLate != 15*time.Millisecond {
		t.Errorf("max lateness %v, want 15ms", p.maxLate)
	}
	if _, _, ok := p.wait(); ok {
		t.Error("pacer issued more ticks than it was given")
	}
}
