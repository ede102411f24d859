package labelsvc

import (
	"encoding/json"
	"sort"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/bandit"
	"omg/internal/consistency"
)

// This file is the oracle the live index is held to: the candidate pool as
// the service built it before the index existed — one full rebuild from
// the retained log per read (referenceAssemble), the availability filter
// and the diversity pass over that rebuild — kept verbatim as test code.
// Reference answers Pool, Stats and Next from a service's persisted State
// and a copy of the retained log, touching none of the service's index.

// referenceAssembly is the candidate pool derived from one read of the
// violation history.
type referenceAssembly struct {
	names []string
	cands []Candidate
	vecs  []assertion.Vector
}

// referenceAssemble builds the candidate pool from scratch: one candidate
// per (stream, sample) with its max-severity-per-assertion feature vector,
// in canonical (stream, sample) order.
func referenceAssemble(vs []assertion.Violation, streamSrc map[string]string) *referenceAssembly {
	byKey := make(map[key2]int)
	var cands []Candidate
	nameSet := make(map[string]bool)
	for _, v := range vs {
		if v.Severity <= 0 {
			continue
		}
		nameSet[v.Assertion] = true
		k := key2{v.Stream, v.SampleIndex}
		idx, ok := byKey[k]
		if !ok {
			idx = len(cands)
			byKey[k] = idx
			cands = append(cands, Candidate{
				SampleKey:  SampleKey{Source: streamSrc[v.Stream], Stream: v.Stream, Sample: v.SampleIndex},
				Severities: make(map[string]float64, 4),
			})
		}
		if v.Severity > cands[idx].Severities[v.Assertion] {
			cands[idx].Severities[v.Assertion] = v.Severity
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Stream != cands[j].Stream {
			return cands[i].Stream < cands[j].Stream
		}
		return cands[i].Sample < cands[j].Sample
	})
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	nameIdx := make(map[string]int, len(names))
	for i, n := range names {
		nameIdx[n] = i
	}
	vecs := make([]assertion.Vector, len(cands))
	for i := range cands {
		c := &cands[i]
		vec := make(assertion.Vector, len(names))
		for name, sev := range c.Severities {
			vec[nameIdx[name]] = sev
			if sev > c.MaxSeverity || (sev == c.MaxSeverity && (c.TopAssertion == "" || name < c.TopAssertion)) {
				c.MaxSeverity = sev
				c.TopAssertion = name
			}
		}
		vecs[i] = vec
		for _, name := range names {
			sev, fired := c.Severities[name]
			if !fired {
				continue
			}
			if kind, attrKey, ok := consistency.ProposalKindForAssertion(name); ok {
				c.WeakLabels = append(c.WeakLabels, WeakLabel{
					Kind:      kind,
					Assertion: name,
					AttrKey:   attrKey,
					Severity:  sev,
				})
			}
		}
	}
	return &referenceAssembly{names: names, cands: cands, vecs: vecs}
}

// referenceAvailable filters the pool down to selectable candidates.
func referenceAvailable(asm *referenceAssembly, taken map[key2]bool) (avail []bandit.Candidate, positions []int) {
	for i := range asm.cands {
		if taken[asm.cands[i].key2()] {
			continue
		}
		avail = append(avail, bandit.Candidate{
			Index:       i,
			Severities:  asm.vecs[i],
			Uncertainty: asm.cands[i].MaxSeverity,
		})
		positions = append(positions, i)
	}
	return avail, positions
}

// referenceDiversify is the diversity pass over assembly positions.
func referenceDiversify(asm *referenceAssembly, positions []int, picks []int, budget int) []int {
	var groupOrder []string
	groups := make(map[string][]int)
	for _, p := range picks {
		if p < 0 || p >= len(positions) {
			continue
		}
		pos := positions[p]
		top := asm.cands[pos].TopAssertion
		if _, ok := groups[top]; !ok {
			groupOrder = append(groupOrder, top)
		}
		groups[top] = append(groups[top], pos)
	}
	out := make([]int, 0, budget)
	for len(out) < budget {
		advanced := false
		for _, g := range groupOrder {
			if len(out) >= budget {
				break
			}
			if q := groups[g]; len(q) > 0 {
				out = append(out, q[0])
				groups[g] = q[1:]
				advanced = true
			}
		}
		if !advanced {
			break
		}
	}
	if len(out) < budget {
		return out
	}
	count := make(map[string]int)
	inBatch := make(map[int]bool, len(out))
	for _, pos := range out {
		count[asm.cands[pos].TopAssertion]++
		inBatch[pos] = true
	}
	for _, name := range asm.names {
		if count[name] > 0 {
			continue
		}
		best := -1
		for _, pos := range positions {
			if inBatch[pos] || asm.cands[pos].TopAssertion != name {
				continue
			}
			if best < 0 || asm.cands[pos].MaxSeverity > asm.cands[best].MaxSeverity {
				best = pos
			}
		}
		if best < 0 {
			continue
		}
		evictGroup, maxN := "", 1
		for g, n := range count {
			if n > maxN || (n == maxN && evictGroup != "" && g < evictGroup) {
				evictGroup, maxN = g, n
			}
		}
		if evictGroup == "" {
			break
		}
		for j := len(out) - 1; j >= 0; j-- {
			if asm.cands[out[j]].TopAssertion == evictGroup {
				count[evictGroup]--
				delete(inBatch, out[j])
				out[j] = best
				inBatch[best] = true
				count[name]++
				break
			}
		}
	}
	return out
}

// Reference is what a service in State st over the retained log vs must
// answer at time now: Pool(), Stats(), and — when budget > 0 — the
// batch the next Next(budget, puller) serves. cfg is the service's Config
// (lease TTL, budget bounds, seed).
type Reference struct {
	Pool  []Candidate
	Stats Stats
	Next  Batch
}

// ReferenceAnswers computes a Reference with the pre-index algorithm.
func ReferenceAnswers(t testing.TB, cfg Config, st State, vs []assertion.Violation, now time.Time, budget int) Reference {
	t.Helper()
	cfg = cfg.withDefaults()
	taken := make(map[key2]bool)
	for _, rec := range st.Labeled {
		taken[rec.key2()] = true
	}
	leased := 0
	for _, l := range st.Leases {
		if l.ExpiresUnix > now.Unix() {
			taken[l.key2()] = true
			leased++
		}
	}
	asm := referenceAssemble(vs, st.StreamSources)
	avail, positions := referenceAvailable(asm, taken)
	sel, err := bandit.NewRoundSelectorFromState(st.Selector)
	if err != nil {
		t.Fatalf("reference selector: %v", err)
	}
	ref := Reference{
		Stats: Stats{
			Selector:    sel.Name(),
			Seed:        st.Selector.Seed,
			Round:       st.Round,
			Pool:        len(avail),
			Candidates:  len(asm.cands),
			Assertions:  len(asm.names),
			Labeled:     len(st.Labeled),
			Leased:      leased,
			Served:      st.Served,
			Feedback:    st.Feedback,
			ErrorsFound: st.ErrorsFound,
		},
		Pool: make([]Candidate, len(positions)),
	}
	for i, pos := range positions {
		ref.Pool[i] = asm.cands[pos]
	}
	if budget <= 0 {
		return ref
	}
	budget = min(budget, maxBudget)
	ref.Next = Batch{
		Round:          st.Round,
		Selector:       sel.Name(),
		Budget:         budget,
		LeaseTTLMillis: cfg.LeaseTTL.Milliseconds(),
	}
	if len(avail) == 0 {
		return ref
	}
	round := st.Round + 1
	picks := sel.Select(bandit.RoundState{
		Round:       round,
		Budget:      overProvision(budget, len(avail)),
		Candidates:  avail,
		FiredCounts: bandit.FiredCounts(avail, len(asm.names)),
	})
	ref.Next.Round = round
	expires := now.Add(cfg.LeaseTTL).Unix()
	for _, pos := range referenceDiversify(asm, positions, picks, budget) {
		c := asm.cands[pos]
		c.LeaseUntilUnix = expires
		ref.Next.Candidates = append(ref.Next.Candidates, c)
	}
	return ref
}

// RequireMatchesReference holds svc's Pool, Stats and — when budget > 0 —
// next batch to the oracle's, byte for byte (as JSON, the served form),
// given the retained log vs the service's source holds right now. It must
// be called at a quiescent point: nothing ingesting, compacting or
// pulling. With budget > 0 the service's round advances by one pull.
func RequireMatchesReference(t testing.TB, svc *Service, vs []assertion.Violation, budget int, puller string) Batch {
	t.Helper()
	now := svc.cfg.Now()
	want := ReferenceAnswers(t, svc.cfg, svc.StateSnapshot(), vs, now, budget)
	requireSameJSON(t, "Pool()", svc.Pool(), want.Pool)
	requireSameJSON(t, "Stats()", svc.Stats(), want.Stats)
	if budget <= 0 {
		return Batch{}
	}
	got, err := svc.Next(budget, puller)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got.Candidates == nil {
		got.Candidates = []Candidate{}
	}
	if want.Next.Candidates == nil {
		want.Next.Candidates = []Candidate{}
	}
	requireSameJSON(t, "Next()", got, want.Next)
	return got
}

func requireSameJSON(t testing.TB, what string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("%s diverges from the full-rebuild oracle:\n got %s\nwant %s", what, clip(g), clip(w))
	}
}

func clip(b []byte) string {
	if len(b) > 2000 {
		return string(b[:2000]) + "…"
	}
	return string(b)
}
