package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHashUniformDeterministic(t *testing.T) {
	a := HashUniform(42, 1, 2, 3)
	b := HashUniform(42, 1, 2, 3)
	if a != b {
		t.Fatalf("not deterministic: %v vs %v", a, b)
	}
}

func TestHashUniformDistinct(t *testing.T) {
	if HashUniform(42, 1, 2) == HashUniform(42, 2, 1) {
		t.Fatal("part order ignored")
	}
	if HashUniform(42, 1) == HashUniform(43, 1) {
		t.Fatal("seed ignored")
	}
}

func TestHashUniformRange(t *testing.T) {
	for i := int64(0); i < 10000; i++ {
		u := HashUniform(7, i)
		if u < 0 || u >= 1 {
			t.Fatalf("HashUniform out of range: %v", u)
		}
	}
}

func TestHashUniformApproximatelyUniform(t *testing.T) {
	const n = 50000
	buckets := make([]int, 10)
	for i := int64(0); i < n; i++ {
		buckets[int(HashUniform(13, i)*10)]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("bucket %d frequency %v, want ~0.1", i, frac)
		}
	}
}

func TestHashRNGDeterministic(t *testing.T) {
	a := HashRNG(5, 8, 9).Float64()
	b := HashRNG(5, 8, 9).Float64()
	if a != b {
		t.Fatalf("HashRNG not deterministic: %v vs %v", a, b)
	}
}

// The monotone-error property: if an event is not realised at rate r, it is
// also not realised at any lower rate.
func TestQuickHashUniformMonotoneRealization(t *testing.T) {
	f := func(ev int64, r1, r2 float64) bool {
		lo, hi := math.Abs(math.Mod(r1, 1)), math.Abs(math.Mod(r2, 1))
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		u := HashUniform(11, ev)
		realizedLo := u < lo
		realizedHi := u < hi
		// realized at lower rate implies realized at higher rate
		return !realizedLo || realizedHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
