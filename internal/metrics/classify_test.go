package metrics

import (
	"math"
	"testing"
)

func TestPercentileRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if got := PercentileRank(vals, 3); math.Abs(got-50) > 1e-12 {
		t.Fatalf("PercentileRank(3) = %v", got)
	}
	if got := PercentileRank(vals, 0); got != 0 {
		t.Fatalf("PercentileRank(min) = %v", got)
	}
	if got := PercentileRank(vals, 10); got != 100 {
		t.Fatalf("PercentileRank(above max) = %v", got)
	}
	if got := PercentileRank(nil, 1); got != 0 {
		t.Fatalf("PercentileRank(empty) = %v", got)
	}
}

func TestMeanStdDev(t *testing.T) {
	if m := Mean([]float64{2, 4, 6}); math.Abs(m-4) > 1e-12 {
		t.Fatalf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
	if s := StdDev([]float64{5}); s != 0 {
		t.Fatalf("StdDev(single) = %v", s)
	}
	s := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(s-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", s)
	}
}
