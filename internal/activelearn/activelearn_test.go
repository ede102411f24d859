package activelearn

import (
	"testing"

	"omg/internal/assertion"
	"omg/internal/bandit"
)

// fakeDomain is a deterministic toy domain: the metric is the fraction of
// "error" pool points labeled so far; points 0..errors-1 are errors and
// fire the single assertion until labeled.
type fakeDomain struct {
	pool    int
	errors  int
	labeled map[int]bool
}

func newFakeDomain(pool, errors int) *fakeDomain {
	return &fakeDomain{pool: pool, errors: errors, labeled: map[int]bool{}}
}

func (d *fakeDomain) Name() string       { return "fake" }
func (d *fakeDomain) NumAssertions() int { return 1 }
func (d *fakeDomain) PoolSize() int      { return d.pool }
func (d *fakeDomain) Reset(int64)        { d.labeled = map[int]bool{} }

func (d *fakeDomain) Assess() []bandit.Candidate {
	out := make([]bandit.Candidate, d.pool)
	for i := range out {
		sev := assertion.Vector{0}
		if i < d.errors && !d.labeled[i] {
			sev[0] = 1
		}
		out[i] = bandit.Candidate{Index: i, Severities: sev, Uncertainty: float64(i % 7)}
	}
	return out
}

func (d *fakeDomain) Train(indices []int) {
	for _, i := range indices {
		d.labeled[i] = true
	}
}

func (d *fakeDomain) Evaluate() float64 {
	fixed := 0
	for i := 0; i < d.errors; i++ {
		if d.labeled[i] {
			fixed++
		}
	}
	return float64(fixed) / float64(d.errors)
}

func TestRunBasicShape(t *testing.T) {
	d := newFakeDomain(100, 20)
	c := Run(d, bandit.NewRandom(1), Config{Rounds: 3, Budget: 10, Trials: 2, Seed: 5})
	if c.Domain != "fake" || c.Strategy != "random" {
		t.Fatalf("curve identity: %+v", c)
	}
	if len(c.Rounds) != 3 || len(c.Metric) != 3 || len(c.StdDev) != 3 {
		t.Fatalf("curve lengths: %+v", c)
	}
	for i := 1; i < len(c.Metric); i++ {
		if c.Metric[i] < c.Metric[i-1] {
			t.Fatalf("metric decreased in fake domain: %v", c.Metric)
		}
	}
}

func TestRunIncludeRound0(t *testing.T) {
	d := newFakeDomain(50, 10)
	c := Run(d, bandit.NewRandom(1), Config{Rounds: 2, Budget: 5, Trials: 1, Seed: 5, IncludeRound0: true})
	if len(c.Rounds) != 3 || c.Rounds[0] != 0 {
		t.Fatalf("rounds = %v", c.Rounds)
	}
	if c.Metric[0] != 0 {
		t.Fatalf("round-0 metric = %v, want 0 (nothing labeled)", c.Metric[0])
	}
}

func TestRunAssertionStrategyBeatsRandomOnFake(t *testing.T) {
	// Uniform-MA labels only error points (the only ones firing), so it
	// must dominate random on the fake domain.
	cfg := Config{Rounds: 2, Budget: 10, Trials: 3, Seed: 7}
	dr := newFakeDomain(200, 20)
	random := Run(dr, bandit.NewRandom(3), cfg)
	du := newFakeDomain(200, 20)
	uniform := Run(du, bandit.NewUniformMA(3), cfg)
	if uniform.Final() <= random.Final() {
		t.Fatalf("uniform-ma %v should beat random %v on the fake domain",
			uniform.Final(), random.Final())
	}
	if uniform.Final() != 1 {
		t.Fatalf("uniform-ma should fix all 20 errors with 2x10 labels: %v", uniform.Final())
	}
}

func TestRunNeverRelabels(t *testing.T) {
	d := newFakeDomain(30, 30)
	// Budget 10 x 3 rounds over a pool of 30: every point labeled exactly
	// once, so the metric must reach exactly 1.
	c := Run(d, bandit.NewRandom(1), Config{Rounds: 3, Budget: 10, Trials: 1, Seed: 5})
	if c.Final() != 1 {
		t.Fatalf("final = %v, want 1 (all points labeled once)", c.Final())
	}
}

func TestCurveHelpers(t *testing.T) {
	c := Curve{
		Rounds: []int{1, 2, 3}, Metric: []float64{0.5, 0.6, 0.7},
		LabelsPerRound: 100,
	}
	if c.Final() != 0.7 {
		t.Fatalf("Final = %v", c.Final())
	}
	if got := c.LabelsToReach(0.6); got != 200 {
		t.Fatalf("LabelsToReach(0.6) = %d", got)
	}
	if got := c.LabelsToReach(0.9); got != -1 {
		t.Fatalf("LabelsToReach(0.9) = %d", got)
	}
	if (Curve{}).Final() != 0 {
		t.Fatal("empty Final should be 0")
	}
}

func TestRunAll(t *testing.T) {
	d := newFakeDomain(50, 10)
	curves := RunAll(d, []bandit.Selector{bandit.NewRandom(1), bandit.NewUncertainty()},
		Config{Rounds: 2, Budget: 5, Trials: 1, Seed: 3})
	if len(curves) != 2 || curves[0].Strategy != "random" || curves[1].Strategy != "uncertainty" {
		t.Fatalf("curves = %+v", curves)
	}
}

func TestViolationsBridgesAssessedPool(t *testing.T) {
	cands := []bandit.Candidate{
		{Index: 0, Severities: assertion.Vector{2, 0}},
		{Index: 3, Severities: assertion.Vector{0, 0}},
		{Index: 5, Severities: assertion.Vector{1, 4, 9}}, // 9 has no name: dropped
	}
	got := Violations(cands, []string{"lights", "track:flicker"}, "pool")
	want := []assertion.Violation{
		{Assertion: "lights", Stream: "pool", SampleIndex: 0, Severity: 2},
		{Assertion: "lights", Stream: "pool", SampleIndex: 5, Severity: 1},
		{Assertion: "track:flicker", Stream: "pool", SampleIndex: 5, Severity: 4},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d violations, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("violation %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
