package store

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"omg/internal/assertion"
	"omg/internal/simrand"
)

// indexedStore is a ViolationStore that answers Query from a
// PostingIndex — both backends.
type indexedStore interface {
	assertion.ViolationStore
	IndexSize() (keys, postings int)
}

// scanQuery is the linear-scan model of Query over an arrival-ordered
// log: filter with q.Matches, keep the newest q.Limit — the last to
// arrive, or under ByKey the greatest by (Time, Stream, SampleIndex) with
// ties to the later arrival — and answer in arrival order.
func scanQuery(log []assertion.Violation, q Query) []assertion.Violation {
	var idx []int
	for i, v := range log {
		if q.Matches(v) {
			idx = append(idx, i)
		}
	}
	if q.Limit > 0 && len(idx) > q.Limit {
		if q.ByKey {
			sort.SliceStable(idx, func(a, b int) bool {
				va, vb := log[idx[a]], log[idx[b]]
				if va.Time != vb.Time {
					return va.Time < vb.Time
				}
				if va.Stream != vb.Stream {
					return va.Stream < vb.Stream
				}
				return va.SampleIndex < vb.SampleIndex
			})
		}
		idx = idx[len(idx)-q.Limit:]
		sort.Ints(idx)
	}
	out := make([]assertion.Violation, 0, len(idx))
	for _, i := range idx {
		out = append(out, log[i])
	}
	return out
}

// TestQueryIndexInvariant drives both backends through a seeded
// interleaving of appends (with ring eviction on the bounded MemStore),
// Compact (capped and budgeted), Replace and Clear, keeping a plain slice as the
// model of the retained log. After every step Query must equal a linear
// scan of the model for every filter shape, limit and order, and the index
// must hold exactly the model's postings under exactly the model's keys —
// no evicted entry, no key left behind by a stream that churned away.
func TestQueryIndexInvariant(t *testing.T) {
	const ringLimit = 48
	seg, err := Open(Config{Dir: t.TempDir(), SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for name, tc := range map[string]struct {
		s     indexedStore
		limit int
	}{
		"mem":     {assertion.NewMemStore(ringLimit), ringLimit},
		"segment": {seg, 0},
	} {
		t.Run(name, func(t *testing.T) { runIndexInvariant(t, tc.s, tc.limit) })
	}
}

func runIndexInvariant(t *testing.T, s indexedStore, limit int) {
	rng := simrand.New(13)
	assertions := []string{"a", "b", "c", "d"}
	var model []assertion.Violation // the retained log, oldest first
	add := func(v assertion.Violation) {
		model = append(model, v)
		if limit > 0 && len(model) > limit {
			model = model[1:]
		}
	}
	compactModel := func(minIngest int64, budget func(string) (int, bool)) {
		var kept []assertion.Violation
		for i, keep := range assertion.PlanCompaction(model, minIngest, budget) {
			if keep {
				kept = append(kept, model[i])
			}
		}
		model = kept
	}
	// next draws a violation with few distinct keys, so (Time, Stream,
	// SampleIndex) ties are the rule; Severity tells the tied ones apart.
	// Stream keys drift with the step, so old keys leave the retained log.
	next := func(step int) assertion.Violation {
		stream := ""
		if !rng.Bool(0.2) {
			stream = fmt.Sprintf("s-%d", step/60+rng.Choice(3))
		}
		return assertion.Violation{
			Assertion:   assertions[rng.Choice(len(assertions))],
			Stream:      stream,
			SampleIndex: rng.Choice(2),
			Time:        float64(rng.Choice(3)),
			Severity:    float64(step),
			IngestUnix:  int64(1000 + step/10),
		}
	}

	// The first query finds a ring that has already wrapped: MemStore
	// builds its index then, from a log whose oldest entry is mid-buffer.
	for i := 0; i < 70; i++ {
		v := next(0)
		if err := s.Append(v); err != nil {
			t.Fatal(err)
		}
		add(v)
	}

	for step := 0; step < 2000; step++ {
		switch op := rng.Choice(100); {
		case op < 94:
			v := next(step)
			if err := s.Append(v); err != nil {
				t.Fatal(err)
			}
			add(v)
		case op < 96:
			minIngest, maxPer := int64(1000+step/10-rng.Choice(8)), rng.Choice(12)
			if _, err := s.Compact(minIngest, maxPer); err != nil {
				t.Fatal(err)
			}
			if minIngest > 0 || maxPer > 0 {
				compactModel(minIngest, assertion.CompactionBudget(maxPer, nil))
			}
		case op < 98:
			budgets := map[string]int{assertions[rng.Choice(4)]: rng.Choice(6), assertions[rng.Choice(4)]: rng.Choice(6)}
			if _, err := s.Compact(0, 0, budgets); err != nil {
				t.Fatal(err)
			}
			compactModel(0, assertion.CompactionBudget(0, budgets))
		case op < 99:
			var snap assertion.RecorderSnapshot
			for i := rng.Choice(70); i > 0; i-- {
				snap.Violations = append(snap.Violations, next(step))
			}
			if err := s.Replace(snap); err != nil {
				t.Fatal(err)
			}
			model = nil
			for _, v := range snap.Violations {
				add(v)
			}
		default:
			if err := s.Replace(assertion.RecorderSnapshot{}); err != nil {
				t.Fatal(err)
			}
			model = nil
		}

		streams := []string{"", "s-0", fmt.Sprintf("s-%d", step/60), fmt.Sprintf("s-%d", step/60+2)}
		for _, name := range append([]string{"", "never"}, assertions...) {
			for _, stream := range streams {
				for _, lim := range []int{0, 1, 3, len(model) + 5} {
					for _, byKey := range []bool{false, true} {
						q := Query{Assertion: name, Stream: stream, Limit: lim, ByKey: byKey}
						if step%7 == 0 {
							q.MinIngestUnix = int64(1000 + step/10 - 2)
						}
						if got, want := s.Query(q), scanQuery(model, q); !slices.Equal(got, want) {
							t.Fatalf("step %d: Query(%+v)\n got %+v\nwant %+v", step, q, got, want)
						}
					}
				}
			}
		}

		// After the queries: MemStore builds its index on the first filtered
		// one and keeps it in step from then on.
		keys := map[string]bool{}
		wantPostings := len(model)
		for _, v := range model {
			keys["a:"+v.Assertion] = true
			if v.Stream != "" {
				keys["s:"+v.Stream] = true
				wantPostings++
			}
		}
		if gotKeys, gotPostings := s.IndexSize(); gotKeys != len(keys) || gotPostings != wantPostings {
			t.Fatalf("step %d: index holds %d keys / %d postings, the retained log has %d / %d",
				step, gotKeys, gotPostings, len(keys), wantPostings)
		}
	}
}
