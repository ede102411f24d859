package main

import (
	"math"
	"testing"
)

// The percentile-support rule: a tail percentile needs at least ten
// samples beyond it.
func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {31, 0, false}, {99, 0, false},
		{100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true},
		{1000, 99, true}, {9999, 99, true},
		{10000, 99.9, true}, {5000000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := supportedTail(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok {
			if beyond := float64(c.n) * (1 - p/100); beyond < 10-1e-9 {
				t.Errorf("supportedTail(%d) = p%v leaves only %.2f samples beyond it", c.n, p, beyond)
			}
		}
	}
}

func TestSummarizeReportsOnlySupportedTail(t *testing.T) {
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 150 || s.P50 != 75 || s.TailP != 90 || s.Tail != 135 || s.Max != 150 {
		t.Errorf("summarize(1..150) = %+v", s)
	}
	if s := summarize(xs[:40]); s.TailP != 0 || s.Tail != 0 || s.P50 != 20 {
		t.Errorf("40 samples support no tail percentile, got %+v", s)
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		// The exclusive method extrapolates beyond two points; only the
		// index is clamped.
		{[]float64{10, 20}, 7.5, 15, 22.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v; python gives %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "throughput_per_s", Better: higher, Bound: 0.10}
	steady := func(m float64) series { return newSeries([]float64{m * 0.99, m, m, m, m * 1.01}) }
	noisy := func(m float64) series { return newSeries([]float64{m * 0.7, m * 0.8, m, m * 1.2, m * 1.3}) }
	if v, _ := verdict(d, steady(100), steady(97)); v != "ok" {
		t.Errorf("3%% worse inside a 10%% bound: %s", v)
	}
	if v, _ := verdict(d, steady(100), steady(85)); v != "REGRESSION" {
		t.Errorf("15%% worse: %s", v)
	}
	if v, _ := verdict(d, noisy(100), noisy(98)); v != "unresolved" {
		t.Errorf("spread wider than the bound must be unresolved, got %s", v)
	}
	if v, _ := verdict(d, noisy(100), noisy(200)); v != "ok" {
		t.Errorf("every run of the change beats every run of the parent: %s", v)
	}
	lowerIsBetter := metricDef{Name: "latency_p50_ms", Better: lower, Bound: 0.15}
	if v, w := verdict(lowerIsBetter, steady(10), steady(12)); v != "REGRESSION" || math.Abs(w-0.2) > 1e-9 {
		t.Errorf("latency 10 -> 12: %s %v", v, w)
	}
}
