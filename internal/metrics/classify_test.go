package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccuracyHelper(t *testing.T) {
	got := Accuracy([]string{"a", "b", "c"}, []string{"a", "x", "c"})
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestAccuracyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	Accuracy([]string{"a"}, nil)
}

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

func TestQuickAccuracyBounded(t *testing.T) {
	f := func(xs []bool) bool {
		truth := make([]string, len(xs))
		pred := make([]string, len(xs))
		for i, x := range xs {
			truth[i] = "t"
			if x {
				pred[i] = "t"
			} else {
				pred[i] = "f"
			}
		}
		a := Accuracy(truth, pred)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
