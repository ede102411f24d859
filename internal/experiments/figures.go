package experiments

import (
	"fmt"
	"sort"
	"strings"

	"omg/internal/activelearn"
	"omg/internal/bandit"
	"omg/internal/domains/avscenes"
	"omg/internal/domains/heartbeat"
	"omg/internal/domains/nightstreet"
	"omg/internal/metrics"
	"omg/internal/simrand"
)

// ---------------------------------------------------------------------
// Figure 3: confidence percentile of the top-10 errors per assertion.

// Figure3Point is one ranked error.
type Figure3Point struct {
	Assertion  string
	Rank       int // 1 = highest confidence error
	Confidence float64
	Percentile float64 // standing within all box confidences
}

// Figure3 finds, per video assertion, the ten highest-confidence true
// model errors it caught, and their percentile within the confidence
// distribution of all detections — the paper's demonstration that model
// assertions find high-confidence errors uncertainty metrics cannot.
func Figure3(s Scale) []Figure3Point {
	d := nightstreet.New(nightstreet.Config{
		Seed:       simrand.DeriveSeed(s.Seed, "video"),
		PoolFrames: s.VideoPoolFrames, TestFrames: s.VideoTestFrames,
	})
	errs, all := d.CollectAssertionErrors()

	var out []Figure3Point
	for _, name := range nightstreet.AssertionNames {
		var confs []float64
		for _, e := range errs {
			if e.Assertion == name && e.ModelError {
				confs = append(confs, e.Confidence)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(confs)))
		for rank := 0; rank < 10 && rank < len(confs); rank++ {
			out = append(out, Figure3Point{
				Assertion:  name,
				Rank:       rank + 1,
				Confidence: confs[rank],
				Percentile: metrics.PercentileRank(all, confs[rank]),
			})
		}
	}
	return out
}

// RenderFigure3 renders the Figure 3 series.
func RenderFigure3(s Scale) string {
	points := Figure3(s)
	byAssertion := map[string][]Figure3Point{}
	for _, p := range points {
		byAssertion[p.Assertion] = append(byAssertion[p.Assertion], p)
	}
	var b strings.Builder
	b.WriteString("Figure 3: percentile (within all box confidences) of the top-10 errors by confidence\n")
	for _, name := range sortedKeys(byAssertion) {
		fmt.Fprintf(&b, "%-9s:", name)
		for _, p := range byAssertion[name] {
			fmt.Fprintf(&b, " r%d=%.0fth", p.Rank, p.Percentile)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figures 4a/4b/5 and Appendix D (Figure 9): active learning.

// ALResult is the outcome of one domain's active-learning comparison.
type ALResult struct {
	Domain string
	Curves []activelearn.Curve
	// LabelSavingsPct compares BAL to random sampling at the target
	// metric: the paper's "40% fewer labels" number. Negative when BAL
	// never reaches random's final metric.
	LabelSavingsPct float64
	// Target is the metric threshold used for the savings computation
	// (random's final metric).
	Target float64
}

// videoSelectors builds the four strategies of Figure 4.
func videoSelectors(seed int64) []bandit.Selector {
	return []bandit.Selector{
		bandit.NewRandom(simrand.DeriveSeed(seed, "sel-random")),
		bandit.NewUncertainty(),
		bandit.NewUniformMA(simrand.DeriveSeed(seed, "sel-uniform")),
		bandit.NewBAL(simrand.DeriveSeed(seed, "sel-bal"), bandit.BALConfig{}),
	}
}

// labelSavings computes how many fewer labels BAL needs than random to
// reach random's final metric.
func labelSavings(curves []activelearn.Curve) (float64, float64) {
	var random, bal *activelearn.Curve
	for i := range curves {
		switch curves[i].Strategy {
		case "random":
			random = &curves[i]
		case "bal":
			bal = &curves[i]
		}
	}
	if random == nil || bal == nil {
		return 0, 0
	}
	target := random.Final()
	randomLabels := random.LabelsToReach(target)
	balLabels := bal.LabelsToReach(target)
	if balLabels < 0 || randomLabels <= 0 {
		return -1, target
	}
	return 100 * float64(randomLabels-balLabels) / float64(randomLabels), target
}

// Figure4a runs the night-street active-learning comparison (Figures 4a
// and 9a: all rounds are always reported).
func Figure4a(s Scale) ALResult {
	d := nightstreet.New(nightstreet.Config{
		Seed:       simrand.DeriveSeed(s.Seed, "video"),
		PoolFrames: s.VideoPoolFrames, TestFrames: s.VideoTestFrames,
	})
	curves := activelearn.RunAll(d, videoSelectors(s.Seed), activelearn.Config{
		Rounds: s.Rounds, Budget: s.VideoBudget, Trials: s.TrialsVideo, Seed: s.Seed,
	})
	savings, target := labelSavings(curves)
	return ALResult{Domain: d.Name(), Curves: curves, LabelSavingsPct: savings, Target: target}
}

// Figure4b runs the NuScenes-style comparison (Figures 4b and 9b).
func Figure4b(s Scale) ALResult {
	d := avscenes.New(avscenes.Config{
		Seed:       simrand.DeriveSeed(s.Seed, "av"),
		PoolScenes: s.AVPoolScenes, TestScenes: s.AVTestScenes,
	})
	curves := activelearn.RunAll(d, videoSelectors(s.Seed), activelearn.Config{
		Rounds: s.Rounds, Budget: s.AVBudget, Trials: s.TrialsAV, Seed: s.Seed,
	})
	savings, target := labelSavings(curves)
	return ALResult{Domain: d.Name(), Curves: curves, LabelSavingsPct: savings, Target: target}
}

// Figure5 runs the single-assertion ECG comparison: random, uncertainty,
// and BAL (with uncertainty fallback), 8 trials, reporting round 0.
func Figure5(s Scale) ALResult {
	d := heartbeat.New(heartbeat.Config{
		Seed:        simrand.DeriveSeed(s.Seed, "ecg"),
		PoolRecords: s.ECGPoolRecords, TestRecords: s.ECGTestRecords,
	})
	selectors := []bandit.Selector{
		bandit.NewRandom(simrand.DeriveSeed(s.Seed, "sel-random")),
		bandit.NewUncertainty(),
		bandit.NewBAL(simrand.DeriveSeed(s.Seed, "sel-bal"), bandit.BALConfig{
			Fallback: bandit.NewUncertainty(),
		}),
	}
	curves := activelearn.RunAll(d, selectors, activelearn.Config{
		Rounds: s.Rounds, Budget: s.ECGBudget, Trials: s.TrialsECG, Seed: s.Seed,
		IncludeRound0: true,
	})
	savings, target := labelSavings(curves)
	return ALResult{Domain: d.Name(), Curves: curves, LabelSavingsPct: savings, Target: target}
}

// RenderAL renders an active-learning result as per-round series.
func RenderAL(title string, r ALResult, percent bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (domain: %s)\n", title, r.Domain)
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%-12s:", c.Strategy)
		for i := range c.Rounds {
			v := c.Metric[i]
			if percent {
				fmt.Fprintf(&b, " r%d=%.1f", c.Rounds[i], 100*v)
			} else {
				fmt.Fprintf(&b, " r%d=%.3f", c.Rounds[i], v)
			}
		}
		b.WriteByte('\n')
	}
	if r.LabelSavingsPct >= 0 {
		fmt.Fprintf(&b, "BAL reaches random's final metric (%.3f) with %.0f%% fewer labels\n",
			r.Target, r.LabelSavingsPct)
	} else {
		fmt.Fprintf(&b, "BAL did not reach random's final metric (%.3f) within the horizon\n", r.Target)
	}
	return b.String()
}
