package bandit

import (
	"fmt"

	"omg/internal/simrand"
)

// This file makes selector round state exportable. The paper's selectors
// carry two kinds of state across labeling rounds: algorithm state (BAL's
// previous-round firing counts) and RNG state. Algorithm state serialises
// cleanly; the simrand generator's internals do not. RoundSelector
// therefore fixes a protocol where the RNG is re-derived from (seed,
// round) at every round and only the algorithm state persists — selection
// becomes a pure function of (seed, round, candidates, restored state),
// which is what lets a collector-hosted labeling service recover
// byte-identically after a crash and lets tests replay a reference trace
// against it. The state advances at selection time only, through the
// round's firing counts, and is bounded: it holds one round's counts,
// never a history.

// BALState is BAL's cross-round algorithm state in serialisable form.
type BALState struct {
	// PrevFired is the previous round's per-assertion firing counts, the
	// input to the marginal-reduction computation.
	PrevFired []float64 `json:"prev_fired,omitempty"`
	// HasPrev reports whether any round has completed (round 1 samples
	// uniformly from assertions regardless of PrevFired).
	HasPrev bool `json:"has_prev,omitempty"`
}

// StateSnapshot exports the selector's cross-round algorithm state. RNG
// state is deliberately excluded; see RoundSelector for the reseeding
// protocol that makes that sound. The in-memory fallback history
// (FellBackRounds) is not part of it: it grows by a round per fallback
// and no selection reads it.
func (b *BAL) StateSnapshot() BALState {
	return BALState{
		PrevFired: append([]float64(nil), b.prevFired...),
		HasPrev:   b.hasPrev,
	}
}

// RestoreState replaces the selector's cross-round algorithm state with a
// previously exported snapshot.
func (b *BAL) RestoreState(st BALState) {
	b.prevFired = append([]float64(nil), st.PrevFired...)
	b.hasPrev = st.HasPrev
}

// RoundSelectorKinds are the strategy names NewRoundSelector accepts.
var RoundSelectorKinds = []string{"bal", "uncertainty", "uniform-ma", "random"}

// RoundSelectorState is the full persistent state of a RoundSelector.
// It is plain JSON: embed it in a checkpoint, write it back with
// RestoreState, and the selector continues exactly where it stopped.
type RoundSelectorState struct {
	Kind string   `json:"kind"`
	Seed int64    `json:"seed"`
	BAL  BALState `json:"bal,omitempty"`
	// CCMAB is a reserved, always-empty key. Every label file written
	// while the CC-MAB selector existed carries "ccmab":{} (omitempty has
	// no effect on a struct), so writing it keeps those bytes stable; a
	// non-empty object in an old file decodes into nothing.
	CCMAB struct{} `json:"ccmab"`
}

// RoundSelector drives any of the paper's selection strategies through a
// crash-recoverable per-round protocol: each Select derives a fresh RNG
// from (seed, state.Round), reconstructs the underlying selector, restores
// its algorithm state, selects, and re-exports the state. It implements
// Selector, so it can drop into the activelearn harness anywhere a plain
// selector can — with the property that two RoundSelectors fed the same
// seed, rounds, and candidates pick identically even if one of them was
// serialised and revived between rounds.
type RoundSelector struct {
	kind string
	seed int64
	bal  BALState
}

// NewRoundSelector builds a round selector of the given kind (one of
// RoundSelectorKinds; "" means "bal").
func NewRoundSelector(kind string, seed int64) (*RoundSelector, error) {
	if kind == "" {
		kind = "bal"
	}
	ok := false
	for _, k := range RoundSelectorKinds {
		if kind == k {
			ok = true
			break
		}
	}
	if !ok {
		return nil, fmt.Errorf("bandit: unknown selector %q (want one of %v)", kind, RoundSelectorKinds)
	}
	return &RoundSelector{kind: kind, seed: seed}, nil
}

// NewRoundSelectorFromState revives a round selector from a persisted
// state snapshot.
func NewRoundSelectorFromState(st RoundSelectorState) (*RoundSelector, error) {
	r, err := NewRoundSelector(st.Kind, st.Seed)
	if err != nil {
		return nil, err
	}
	r.RestoreState(st)
	return r, nil
}

// Name implements Selector.
func (r *RoundSelector) Name() string { return r.kind }

// Reset implements Selector: it clears all cross-round state and rebases
// the per-round RNG derivation on the new seed.
func (r *RoundSelector) Reset(seed int64) {
	r.seed = seed
	r.bal = BALState{}
}

// StateSnapshot exports everything needed to revive this selector.
func (r *RoundSelector) StateSnapshot() RoundSelectorState {
	st := RoundSelectorState{Kind: r.kind, Seed: r.seed}
	if r.kind == "bal" {
		b := &BAL{}
		b.RestoreState(r.bal)
		st.BAL = b.StateSnapshot()
	}
	return st
}

// RestoreState replaces the selector's cross-round state. The kind and
// seed in st are ignored (fixed at construction).
func (r *RoundSelector) RestoreState(st RoundSelectorState) {
	b := &BAL{}
	b.RestoreState(st.BAL)
	r.bal = b.StateSnapshot()
}

// roundSeed derives the RNG seed for one round: unique per (seed, kind,
// round) so re-running a round after a crash redraws identically.
func (r *RoundSelector) roundSeed(round int) int64 {
	return simrand.DeriveSeed(r.seed, fmt.Sprintf("%s-round-%d", r.kind, round))
}

// Select implements Selector via the reseed-and-restore protocol.
func (r *RoundSelector) Select(state RoundState) []int {
	seed := r.roundSeed(state.Round)
	switch r.kind {
	case "bal":
		b := NewBAL(seed, BALConfig{})
		b.RestoreState(r.bal)
		out := b.Select(state)
		r.bal = b.StateSnapshot()
		return out
	case "uncertainty":
		return NewUncertainty().Select(state)
	case "uniform-ma":
		return NewUniformMA(seed).Select(state)
	default: // "random"
		return NewRandom(seed).Select(state)
	}
}
