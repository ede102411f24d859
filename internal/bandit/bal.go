package bandit

import (
	"math"
	"sort"

	"omg/internal/simrand"
)

// BALConfig tunes the BAL algorithm. The defaults are the paper's
// (Algorithm 2 and §3): 25% of each round's budget reserved for uniform
// exploration across assertions, and a 1% marginal-reduction threshold
// below which BAL falls back to its baseline strategy.
type BALConfig struct {
	// ExploreFraction of the budget is sampled uniformly across
	// assertions each round ("inspired by ε-greedy algorithms"). Default
	// 0.25. Set NoExplore for the zero-exploration ablation.
	ExploreFraction float64
	// NoExplore disables the uniform exploration slice entirely
	// (ablation; overrides ExploreFraction).
	NoExplore bool
	// FallbackThreshold: when every assertion's relative marginal
	// reduction r_m falls below this, BAL defaults to the fallback
	// selector. Default 0.01 (1%).
	FallbackThreshold float64
	// Fallback is the baseline used in round 1's absence of history is
	// NOT this — round 1 always samples uniformly from assertions; the
	// fallback applies only when reductions vanish. Default: random.
	Fallback Selector
	// RankPower shapes within-assertion sampling: candidate weight is
	// rank^RankPower where rank 1 is the *lowest* severity. Default 1
	// (weight proportional to severity rank, per the paper).
	RankPower float64
}

func (c BALConfig) withDefaults(seed int64) BALConfig {
	if c.ExploreFraction <= 0 || c.ExploreFraction > 1 {
		c.ExploreFraction = 0.25
	}
	if c.NoExplore {
		c.ExploreFraction = 0
	}
	if c.FallbackThreshold <= 0 {
		c.FallbackThreshold = 0.01
	}
	if c.Fallback == nil {
		c.Fallback = NewRandom(simrand.DeriveSeed(seed, "bal-fallback"))
	}
	if c.RankPower <= 0 {
		c.RankPower = 1
	}
	return c
}

// BAL is the paper's bandit-based active-learning selector (Algorithm 2).
//
// Round 1: sample uniformly from the d model assertions (calibration).
// Later rounds: compute the marginal reduction r_m in the number of times
// assertion m fired relative to the previous round; if all r_m < 1%,
// fall back to the baseline; otherwise select assertions proportionally
// to r_m and, within an assertion, sample candidates proportionally to
// their severity-score rank. A quarter of the budget is always spent
// sampling uniformly across assertions so no context is under-explored.
type BAL struct {
	cfg  BALConfig
	seed int64
	rng  *simrand.RNG

	prevFired []float64
	hasPrev   bool
	// fellBack records rounds where the fallback fired (observability).
	fellBack []int
}

// NewBAL builds a BAL selector with the given seed and configuration
// (zero value = paper defaults).
func NewBAL(seed int64, cfg BALConfig) *BAL {
	b := &BAL{cfg: cfg.withDefaults(seed), seed: seed}
	b.Reset(seed)
	return b
}

// Name implements Selector.
func (b *BAL) Name() string { return "bal" }

// Reset implements Selector.
func (b *BAL) Reset(seed int64) {
	b.seed = seed
	b.rng = simrand.NewStream(seed, "selector-bal")
	b.prevFired = nil
	b.hasPrev = false
	b.fellBack = nil
	b.cfg.Fallback.Reset(simrand.DeriveSeed(seed, "bal-fallback"))
}

// FellBackRounds returns the rounds in which BAL deferred to its fallback
// baseline.
func (b *BAL) FellBackRounds() []int {
	out := make([]int, len(b.fellBack))
	copy(out, b.fellBack)
	return out
}

// Select implements Selector.
func (b *BAL) Select(state RoundState) []int {
	k := clampBudget(state.Budget, len(state.Candidates))
	defer func() {
		// Remember this round's firing counts for the next round's
		// marginal-reduction computation.
		b.prevFired = append([]float64(nil), state.FiredCounts...)
		b.hasPrev = true
	}()

	if !b.hasPrev {
		// Round 1: uniformly at random from the d model assertions.
		return selectFromAssertions(b.rng, state, k, nil, rankSampler(b.cfg.RankPower))
	}

	// Marginal reduction per assertion, relative to the previous round.
	d := len(state.FiredCounts)
	r := make([]float64, d)
	anyAbove := false
	for m := 0; m < d; m++ {
		prev := 0.0
		if m < len(b.prevFired) {
			prev = b.prevFired[m]
		}
		if prev <= 0 {
			r[m] = 0
			continue
		}
		red := (prev - state.FiredCounts[m]) / prev
		if red < 0 {
			red = 0
		}
		r[m] = red
		if red >= b.cfg.FallbackThreshold {
			anyAbove = true
		}
	}

	if !anyAbove {
		// None of the assertions are reducing: default to the baseline
		// method (random or uncertainty sampling, per configuration).
		b.fellBack = append(b.fellBack, state.Round)
		return b.cfg.Fallback.Select(state)
	}

	// Budget split: exploration (uniform across assertions) vs
	// exploitation (proportional to marginal reduction).
	explore := int(float64(k) * b.cfg.ExploreFraction)
	exploit := k - explore

	chosen := make(map[int]bool, k)
	var out []int

	appendNew := func(positions []int) {
		for _, p := range positions {
			if !chosen[p] {
				chosen[p] = true
				out = append(out, p)
			}
		}
	}

	if exploit > 0 {
		appendNew(b.selectExcluding(state, exploit, r, chosen))
	}
	if explore > 0 {
		appendNew(b.selectExcluding(state, explore, nil, chosen))
	}
	// Fill any shortfall (overlap or exhausted assertions) randomly.
	if len(out) < k {
		var remaining []int
		for pos := range state.Candidates {
			if !chosen[pos] {
				remaining = append(remaining, pos)
			}
		}
		for _, pi := range b.rng.SampleWithoutReplacement(len(remaining), k-len(out)) {
			out = append(out, remaining[pi])
		}
	}
	return out
}

// selectExcluding runs assertion-driven selection over the candidates not
// yet chosen, translating positions back to the full candidate slice.
func (b *BAL) selectExcluding(state RoundState, k int, weights []float64, chosen map[int]bool) []int {
	var avail []Candidate
	var back []int
	for pos, c := range state.Candidates {
		if chosen[pos] {
			continue
		}
		avail = append(avail, c)
		back = append(back, pos)
	}
	sub := RoundState{
		Round:       state.Round,
		Budget:      k,
		Candidates:  avail,
		FiredCounts: FiredCounts(avail, len(state.FiredCounts)),
	}
	picked := selectFromAssertionsNoFill(b.rng, sub, k, weights, rankSampler(b.cfg.RankPower))
	out := make([]int, 0, len(picked))
	for _, p := range picked {
		out = append(out, back[p])
	}
	return out
}

// rankSampler is the within-assertion sampler weighting candidates by
// their severity rank: ranking the triggering candidates by ascending
// maximum severity, candidate weight is rank^power, so higher-severity
// points are proportionally more likely — "sample proportional to
// severity score rank" (Algorithm 2). The ranking is a stable sort, so
// deleting a picked candidate leaves the rest ranked as a re-sort would.
type rankPicker struct {
	power float64
	// weights[i] is (i+1)^power, grown to the longest list drawn from.
	weights []float64
}

func rankSampler(power float64) *rankPicker { return &rankPicker{power: power} }

func (r *rankPicker) arrange(cands []Candidate, positions []int) {
	// The sort key is extracted once per candidate, not once per
	// comparison.
	type ranked struct {
		pos int
		sev float64
	}
	items := make([]ranked, len(positions))
	for i, pos := range positions {
		_, sev := cands[pos].Severities.Max()
		items[i] = ranked{pos, sev}
	}
	sort.SliceStable(items, func(a, b int) bool {
		if items[a].sev != items[b].sev {
			return items[a].sev < items[b].sev
		}
		return cands[items[a].pos].Index < cands[items[b].pos].Index
	})
	for i, it := range items {
		positions[i] = it.pos
	}
}

func (r *rankPicker) pick(rng *simrand.RNG, n int) int {
	for i := len(r.weights); i < n; i++ {
		r.weights = append(r.weights, math.Pow(float64(i+1), r.power))
	}
	return rng.WeightedChoice(r.weights[:n])
}
