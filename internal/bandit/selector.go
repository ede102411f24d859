// Package bandit implements the paper's data-selection algorithms for
// active learning with model assertions (§3): BAL (Algorithm 2) and the
// baselines the paper compares it against — random sampling, uncertainty
// sampling ("least confident"), and uniform sampling from data flagged by
// model assertions. The paper's Algorithm 1, the contextual combinatorial
// bandit BAL simplifies, is not here: it needs a label and a retrain per
// selected point, which the paper itself sets aside as infeasible.
package bandit

import (
	"slices"
	"sort"

	"omg/internal/assertion"
	"omg/internal/simrand"
)

// Candidate is one unlabeled data point available for selection in a
// labeling round.
type Candidate struct {
	// Index identifies the data point in the caller's pool.
	Index int
	// Severities is the data point's severity vector: one entry per model
	// assertion (the bandit's per-arm context, paper §3).
	Severities assertion.Vector
	// Uncertainty is the model's uncertainty on the data point; higher
	// means less confident. Only the uncertainty baseline (and BAL's
	// uncertainty fallback) read it.
	Uncertainty float64
}

// RoundState is everything a selector sees at one labeling round.
type RoundState struct {
	// Round is the 1-based data-collection round.
	Round int
	// Budget is the number of data points to select this round (B_t).
	Budget int
	// Candidates is the current unlabeled pool with fresh severity
	// vectors (assertions are re-evaluated after each retraining, so the
	// feature vectors change over rounds, paper §3).
	Candidates []Candidate
	// FiredCounts[m] is the number of pool points whose assertion m
	// severity is positive this round — the quantity whose marginal
	// reduction drives BAL.
	FiredCounts []float64
}

// Selector chooses which data points to label each round. Implementations
// carry state across rounds (e.g. BAL's previous-round counts) and are
// reset between independent trials.
type Selector interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Select returns positions into state.Candidates (not pool indices)
	// of the chosen points: up to state.Budget distinct positions.
	Select(state RoundState) []int
	// Reset clears cross-round state for a fresh trial with the given
	// seed.
	Reset(seed int64)
}

// FiredCounts computes per-assertion positive-severity counts for a pool,
// the RoundState.FiredCounts input.
func FiredCounts(cands []Candidate, numAssertions int) []float64 {
	out := make([]float64, numAssertions)
	for _, c := range cands {
		for m, s := range c.Severities {
			if m < numAssertions && s > 0 {
				out[m]++
			}
		}
	}
	return out
}

// clampBudget bounds the selection size by the pool size.
func clampBudget(budget, n int) int {
	if budget > n {
		return n
	}
	if budget < 0 {
		return 0
	}
	return budget
}

// Random selects uniformly at random without replacement: the paper's
// "random sampling" baseline.
type Random struct {
	rng *simrand.RNG
}

// NewRandom returns a random selector.
func NewRandom(seed int64) *Random {
	return &Random{rng: simrand.NewStream(seed, "selector-random")}
}

// Name implements Selector.
func (r *Random) Name() string { return "random" }

// Reset implements Selector.
func (r *Random) Reset(seed int64) { r.rng = simrand.NewStream(seed, "selector-random") }

// Select implements Selector.
func (r *Random) Select(state RoundState) []int {
	k := clampBudget(state.Budget, len(state.Candidates))
	return r.rng.SampleWithoutReplacement(len(state.Candidates), k)
}

// Uncertainty selects the k candidates the model is least confident
// about: the paper's "uncertainty sampling with least confident"
// baseline (Settles 2009).
type Uncertainty struct{}

// NewUncertainty returns an uncertainty selector.
func NewUncertainty() *Uncertainty { return &Uncertainty{} }

// Name implements Selector.
func (u *Uncertainty) Name() string { return "uncertainty" }

// Reset implements Selector.
func (u *Uncertainty) Reset(int64) {}

// Select implements Selector.
func (u *Uncertainty) Select(state RoundState) []int {
	k := clampBudget(state.Budget, len(state.Candidates))
	order := make([]int, len(state.Candidates))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := state.Candidates[order[a]], state.Candidates[order[b]]
		if ca.Uncertainty != cb.Uncertainty {
			return ca.Uncertainty > cb.Uncertainty
		}
		return ca.Index < cb.Index // deterministic tie-break
	})
	return order[:k]
}

// UniformMA samples uniformly from data flagged by model assertions:
// first an assertion is chosen uniformly among those with any triggering
// candidates, then a triggering candidate uniformly. Unfilled budget
// (nothing fires) falls back to random. This is the paper's "uniform
// sampling from model assertions" baseline.
type UniformMA struct {
	rng *simrand.RNG
}

// NewUniformMA returns a uniform-from-assertions selector.
func NewUniformMA(seed int64) *UniformMA {
	return &UniformMA{rng: simrand.NewStream(seed, "selector-uniform-ma")}
}

// Name implements Selector.
func (u *UniformMA) Name() string { return "uniform-ma" }

// Reset implements Selector.
func (u *UniformMA) Reset(seed int64) { u.rng = simrand.NewStream(seed, "selector-uniform-ma") }

// Select implements Selector.
func (u *UniformMA) Select(state RoundState) []int {
	k := clampBudget(state.Budget, len(state.Candidates))
	return selectFromAssertions(u.rng, state, k, nil, uniformPicker{})
}

// triggering returns, per assertion, the candidate positions with
// positive severity, in candidate order.
func triggering(cands []Candidate, numAssertions int) [][]int {
	out := make([][]int, numAssertions)
	for pos, c := range cands {
		for m, s := range c.Severities {
			if m < numAssertions && s > 0 {
				out[m] = append(out[m], pos)
			}
		}
	}
	return out
}

// withinPicker chooses among one assertion's triggering candidates.
// arrange puts the assertion's positions into the order pick's draw
// refers to; it runs once per assertion per selection (the first time
// that assertion is drawn), and the selection loop then deletes every
// picked position from the lists it is on with the order preserved — so
// each draw sees exactly the list a from-scratch rebuild without the
// picked positions would have produced.
type withinPicker interface {
	arrange(cands []Candidate, positions []int)
	pick(rng *simrand.RNG, n int) int
}

// uniformPicker draws uniformly over the positions in candidate order.
type uniformPicker struct{}

func (uniformPicker) arrange([]Candidate, []int)       {}
func (uniformPicker) pick(rng *simrand.RNG, n int) int { return rng.Choice(n) }

// selectFromAssertions fills k slots by repeatedly (1) choosing an
// assertion — with the given weights, or uniformly among non-empty ones
// when weights is nil — and (2) choosing one of its triggering candidates
// with within. Unfillable slots fall back to random selection over the
// remaining pool.
func selectFromAssertions(
	rng *simrand.RNG,
	state RoundState,
	k int,
	weights []float64,
	within withinPicker,
) []int {
	out := selectFromAssertionsNoFill(rng, state, k, weights, within)
	if len(out) < k {
		chosen := make(map[int]bool, len(out))
		for _, p := range out {
			chosen[p] = true
		}
		var remaining []int
		for pos := range state.Candidates {
			if !chosen[pos] {
				remaining = append(remaining, pos)
			}
		}
		for _, pi := range rng.SampleWithoutReplacement(len(remaining), k-len(out)) {
			out = append(out, remaining[pi])
		}
	}
	return out
}

// selectFromAssertionsNoFill is the core assertion-driven sampling loop:
// it stops (possibly short of k) when no assertion has triggering
// candidates left, leaving fill policy to the caller (BAL keeps its
// exploration/exploitation accounting separate from the random fill).
func selectFromAssertionsNoFill(
	rng *simrand.RNG,
	state RoundState,
	k int,
	weights []float64,
	within withinPicker,
) []int {
	d := len(state.FiredCounts)
	if d == 0 {
		for _, c := range state.Candidates {
			if len(c.Severities) > d {
				d = len(c.Severities)
			}
		}
	}
	// The per-assertion lists are built once; a pick is deleted from every
	// list it is on, so no round re-derives them from the whole pool.
	trig := triggering(state.Candidates, d)
	arranged := make([]bool, d)
	w := make([]float64, d)
	var out []int
	for len(out) < k {
		// Effective weights: zero out assertions with no available
		// triggering candidates.
		nonEmpty := 0
		for m := 0; m < d; m++ {
			w[m] = 0
			if len(trig[m]) == 0 {
				continue
			}
			nonEmpty++
			if weights == nil {
				w[m] = 1
			} else if m < len(weights) && weights[m] > 0 {
				w[m] = weights[m]
			}
		}
		if nonEmpty == 0 {
			break // nothing fires any more
		}
		positive := false
		for _, x := range w {
			if x > 0 {
				positive = true
			}
		}
		if !positive {
			// Weighted mode but no weighted assertion has candidates
			// left: spread uniformly over the non-empty ones.
			for m := 0; m < d; m++ {
				if len(trig[m]) > 0 {
					w[m] = 1
				}
			}
		}
		m := rng.WeightedChoice(w)
		if !arranged[m] {
			within.arrange(state.Candidates, trig[m])
			arranged[m] = true
		}
		pos := trig[m][within.pick(rng, len(trig[m]))]
		for a, s := range state.Candidates[pos].Severities {
			if a < d && s > 0 {
				trig[a] = slices.DeleteFunc(trig[a], func(p int) bool { return p == pos })
			}
		}
		out = append(out, pos)
	}
	return out
}
