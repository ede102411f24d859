// Package activelearn is the active-learning loop harness for the
// paper's §5.4 experiments: T rounds of data collection, each selecting
// B_t points from an unlabeled pool with a pluggable selection strategy,
// labeling them, retraining the domain's model, and evaluating on held-out
// test data.
package activelearn

import (
	"omg/internal/bandit"
	"omg/internal/metrics"
)

// Domain is one experimental task (video analytics, AVs, ECG). A Domain
// owns its pool, test set, model and assertion suite.
type Domain interface {
	// Name identifies the domain in experiment output.
	Name() string
	// NumAssertions returns the number of deployed model assertions (d).
	NumAssertions() int
	// PoolSize returns the unlabeled-pool size.
	PoolSize() int
	// Reset reinitialises the model to its bootstrap state for a fresh
	// trial with the given seed.
	Reset(seed int64)
	// Assess re-runs the current model and all assertions over the
	// unlabeled pool, returning one candidate per pool element (the
	// paper's feature vectors change every round as the model improves).
	Assess() []bandit.Candidate
	// Train labels the given pool indices and fine-tunes the model on
	// them (cumulative across rounds within a trial).
	Train(indices []int)
	// Evaluate returns the test metric (mAP or accuracy) of the current
	// model.
	Evaluate() float64
}

// Config parameterises a run.
type Config struct {
	// Rounds of data collection (paper: 5).
	Rounds int
	// Budget B_t per round (paper: 100 frames / records).
	Budget int
	// Trials to average over (paper: 2 for night-street, 8 for
	// NuScenes/ECG).
	Trials int
	// Seed drives trial seeds.
	Seed int64
	// IncludeRound0 also records the bootstrap metric before any
	// labeling (the paper's ECG figure starts at round 0).
	IncludeRound0 bool
}

// Curve is the experiment output for one strategy: the metric after each
// round, averaged over trials, with per-round standard deviations.
type Curve struct {
	Domain   string
	Strategy string
	// Rounds[i] is the label-collection round number of point i (0 or 1
	// through Rounds).
	Rounds []int
	// Metric[i] is the mean metric after round Rounds[i].
	Metric []float64
	// StdDev[i] is the across-trial standard deviation.
	StdDev []float64
	// LabelsPerRound echoes the budget for downstream label-efficiency
	// computations.
	LabelsPerRound int
}

// Final returns the last recorded metric.
func (c Curve) Final() float64 {
	if len(c.Metric) == 0 {
		return 0
	}
	return c.Metric[len(c.Metric)-1]
}

// LabelsToReach returns the number of labels needed to first reach the
// target metric, or -1 if never reached. Round 0 (if present) counts as
// zero labels.
func (c Curve) LabelsToReach(target float64) int {
	for i, m := range c.Metric {
		if m >= target {
			return c.Rounds[i] * c.LabelsPerRound
		}
	}
	return -1
}

// Run executes the full multi-trial active-learning loop for one domain
// and one selector.
func Run(domain Domain, selector bandit.Selector, cfg Config) Curve {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 5
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 100
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}

	points := cfg.Rounds
	if cfg.IncludeRound0 {
		points++
	}
	perRound := make([][]float64, points)

	for trial := 0; trial < cfg.Trials; trial++ {
		trialSeed := cfg.Seed + int64(trial)*7919
		domain.Reset(trialSeed)
		selector.Reset(trialSeed)

		labeled := make(map[int]bool)
		pi := 0
		if cfg.IncludeRound0 {
			perRound[0] = append(perRound[0], domain.Evaluate())
			pi = 1
		}

		for round := 1; round <= cfg.Rounds; round++ {
			all := domain.Assess()
			// Present only unlabeled candidates to the selector.
			var avail []bandit.Candidate
			for _, c := range all {
				if !labeled[c.Index] {
					avail = append(avail, c)
				}
			}
			state := bandit.RoundState{
				Round:       round,
				Budget:      cfg.Budget,
				Candidates:  avail,
				FiredCounts: bandit.FiredCounts(avail, domain.NumAssertions()),
			}
			var chosen []int
			for _, pos := range selector.Select(state) {
				idx := avail[pos].Index
				labeled[idx] = true
				chosen = append(chosen, idx)
			}
			domain.Train(chosen)
			perRound[pi] = append(perRound[pi], domain.Evaluate())
			pi++
		}
	}

	curve := Curve{
		Domain:         domain.Name(),
		Strategy:       selector.Name(),
		LabelsPerRound: cfg.Budget,
	}
	startRound := 1
	if cfg.IncludeRound0 {
		startRound = 0
	}
	for i, vals := range perRound {
		curve.Rounds = append(curve.Rounds, startRound+i)
		curve.Metric = append(curve.Metric, metrics.Mean(vals))
		curve.StdDev = append(curve.StdDev, metrics.StdDev(vals))
	}
	return curve
}

// RunAll runs every selector against the domain and returns the curves in
// input order.
func RunAll(domain Domain, selectors []bandit.Selector, cfg Config) []Curve {
	out := make([]Curve, 0, len(selectors))
	for _, sel := range selectors {
		out = append(out, Run(domain, sel, cfg))
	}
	return out
}
