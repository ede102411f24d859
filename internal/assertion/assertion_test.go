package assertion

import (
	"testing"
	"testing/quick"
)

func constAssertion(name string, sev float64) Assertion {
	return New(name, func([]Sample) float64 { return sev })
}

func TestFuncNilFn(t *testing.T) {
	a := Func{AssertionName: "nil"}
	if got := a.Check(nil); got != 0 {
		t.Fatalf("nil Fn Check = %v", got)
	}
}

func TestNewBool(t *testing.T) {
	a := NewBool("b", func(w []Sample) bool { return len(w) > 2 })
	if got := a.Check(make([]Sample, 3)); got != 1 {
		t.Fatalf("true case = %v", got)
	}
	if got := a.Check(make([]Sample, 1)); got != 0 {
		t.Fatalf("false case = %v", got)
	}
	if a.Name() != "b" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestRegistryAddGet(t *testing.T) {
	r := NewRegistry()
	if err := r.Add(constAssertion("flicker", 1)); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Get("flicker")
	if !ok {
		t.Fatal("registered assertion not found")
	}
	if got.Assertion.Name() != "flicker" {
		t.Fatalf("name = %q", got.Assertion.Name())
	}
	if n := len(r.Names()); n != 1 {
		t.Fatalf("registered %d, want 1", n)
	}
}

func TestRegistryDuplicateRejected(t *testing.T) {
	r := NewRegistry()
	if err := r.Add(constAssertion("a", 0)); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(constAssertion("a", 1)); err == nil {
		t.Fatal("duplicate registration should fail")
	}
}

func TestRegistryNilAndEmptyName(t *testing.T) {
	r := NewRegistry()
	if err := r.Add(nil); err == nil {
		t.Fatal("nil assertion should fail")
	}
	if err := r.Add(constAssertion("", 0)); err == nil {
		t.Fatal("empty name should fail")
	}
}

func TestRegistryMustAddPanics(t *testing.T) {
	r := NewRegistry()
	r.MustAdd(constAssertion("x", 0))
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd duplicate did not panic")
		}
	}()
	r.MustAdd(constAssertion("x", 0))
}

func TestRegistryOrderPreserved(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z", "a", "m"} {
		r.MustAdd(constAssertion(n, 0))
	}
	names := r.Names()
	want := []string{"z", "a", "m"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	suite := r.Suite()
	got := suite.Names()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Suite names = %v, want %v", got, want)
		}
	}
}

func TestRegistrySuiteSnapshot(t *testing.T) {
	r := NewRegistry()
	r.MustAdd(constAssertion("a", 1))
	s := r.Suite()
	r.MustAdd(constAssertion("b", 1))
	if s.Len() != 1 {
		t.Fatalf("suite should be a snapshot, Len = %d", s.Len())
	}
}

func TestSuiteEvaluate(t *testing.T) {
	s := NewSuite(
		constAssertion("zero", 0),
		constAssertion("two", 2),
		constAssertion("neg", -5), // clamped to 0
	)
	v := s.Evaluate(nil)
	if len(v) != 3 || v[0] != 0 || v[1] != 2 || v[2] != 0 {
		t.Fatalf("Evaluate = %v", v)
	}
}

func TestSuiteSkipsNil(t *testing.T) {
	s := NewSuite(nil, constAssertion("a", 1), nil)
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestVectorHelpers(t *testing.T) {
	v := Vector{0, 3, 1}
	if !v.Fired() {
		t.Fatal("Fired = false")
	}
	idx, sev := v.Max()
	if idx != 1 || sev != 3 {
		t.Fatalf("Max = (%d, %v)", idx, sev)
	}

	empty := Vector{}
	if empty.Fired() {
		t.Fatal("empty vector misbehaves")
	}
	if idx, _ := empty.Max(); idx != -1 {
		t.Fatalf("empty Max idx = %d", idx)
	}

	zeros := Vector{0, 0}
	if zeros.Fired() {
		t.Fatal("zero vector Fired = true")
	}
}

func TestQuickVectorFiredIffCountPositive(t *testing.T) {
	f := func(raw []float64) bool {
		positive := 0
		for _, s := range raw {
			if s > 0 {
				positive++
			}
		}
		return Vector(raw).Fired() == (positive > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
