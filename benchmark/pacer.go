package main

import "time"

// pacer drives an open loop: tick i is due at start + i*period whatever
// happened to the ticks before it, so a stall delays later ticks without
// moving their due times, and every operation is timed from when it was
// due rather than from when the generator got round to sending it.
type pacer struct {
	start   time.Time
	period  time.Duration
	ticks   int
	next    int
	maxLate time.Duration

	now   func() time.Time // time.Now; tests substitute a fake clock
	sleep func(time.Duration)
}

func newPacer(period time.Duration, ticks int) *pacer {
	return &pacer{start: time.Now(), period: period, ticks: ticks, now: time.Now, sleep: time.Sleep}
}

// due returns tick i's scheduled time.
func (p *pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.period) }

// wait blocks until the next tick is due and returns its index and due
// time; ok is false once every tick has been issued. A generator that is
// already late does not sleep — it catches up — and the worst lateness
// is kept as the generator's own health figure.
func (p *pacer) wait() (i int, due time.Time, ok bool) {
	if p.next >= p.ticks {
		return 0, time.Time{}, false
	}
	i, due = p.next, p.due(p.next)
	p.next++
	if d := due.Sub(p.now()); d > 0 {
		p.sleep(d)
	}
	if late := p.now().Sub(due); late > p.maxLate {
		p.maxLate = late
	}
	return i, due, true
}
