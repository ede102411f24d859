package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// latencies collects one timing series (milliseconds).
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// sorted returns a sorted copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of a sorted series: the
// smallest value with at least p percent of the samples at or below it.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidates for "the highest percentile".
var tailPercentiles = []float64{99.9, 99, 95, 90}

// supportedTail is the percentile-support rule: a tail percentile is only
// reported when at least ten samples lie beyond it, so it is the highest
// of 99.9/99/95/90 with n*(1-p) >= 10. ok is false below 100 samples,
// where only the median is reported.
func supportedTail(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		// Integer arithmetic: n*(1000-10p) >= 10*1000 avoids 0.1's rounding.
		if n*int(math.Round(1000-10*p)) >= 10*1000 {
			return p, true
		}
	}
	return 0, false
}

// summary is a timing as the metrics guide asks for it: the median, the
// highest supported percentile, and the sample count.
type summary struct {
	N     int
	P50   float64
	TailP float64 // 0 when no tail percentile is supported
	Tail  float64
	Max   float64
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50, out.Max = percentile(s, 50), s[len(s)-1]
	if p, ok := supportedTail(len(s)); ok {
		out.TailP, out.Tail = p, percentile(s, p)
	}
	return out
}

func (s summary) String() string {
	if s.N == 0 {
		return "no samples"
	}
	if s.TailP == 0 {
		return fmt.Sprintf("p50 %.3f ms, max %.3f ms (n=%d)", s.P50, s.Max, s.N)
	}
	return fmt.Sprintf("p50 %.3f ms, p%g %.3f ms, max %.3f ms (n=%d)", s.P50, s.TailP, s.Tail, s.Max, s.N)
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method) — the spread the driver computes, so
// -repeat prints the number the driver will see.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
