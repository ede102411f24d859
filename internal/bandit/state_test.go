package bandit

import (
	"encoding/json"
	"reflect"
	"testing"
)

// evolvePool shrinks firing counts round over round so BAL sees a
// marginal reduction signal: round r keeps candidates whose assertion
// severity survives a per-round decay.
func evolvePool(round, n, d int) []Candidate {
	cands := mkPool(n, d)
	for i := range cands {
		for m := range cands[i].Severities {
			if (i+round*3)%7 == 0 {
				cands[i].Severities[m] = 0
			}
		}
	}
	return cands
}

func TestBALStateSnapshotRestore(t *testing.T) {
	a := NewBAL(7, BALConfig{})
	a.Select(mkState(1, 8, mkPool(60, 4), 4))
	st := a.StateSnapshot()
	if !st.HasPrev || len(st.PrevFired) != 4 {
		t.Fatalf("snapshot after round 1: %+v", st)
	}
	b := NewBAL(99, BALConfig{})
	b.RestoreState(st)
	got := b.StateSnapshot()
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("restore round-trip: got %+v want %+v", got, st)
	}
	// Mutating the snapshot must not reach into the selector.
	st.PrevFired[0] = -1
	if b.StateSnapshot().PrevFired[0] == -1 {
		t.Fatal("RestoreState aliased the snapshot slice")
	}
}

// TestRoundSelectorCrashEquivalence is the property the collector's label
// service depends on: serialising a RoundSelector mid-run and reviving it
// from JSON yields exactly the selections the uninterrupted selector
// would have made.
func TestRoundSelectorCrashEquivalence(t *testing.T) {
	const rounds, n, d, budget = 5, 80, 4, 10
	for _, kind := range RoundSelectorKinds {
		t.Run(kind, func(t *testing.T) {
			cont, err := NewRoundSelector(kind, 42)
			if err != nil {
				t.Fatal(err)
			}
			crashed, err := NewRoundSelector(kind, 42)
			if err != nil {
				t.Fatal(err)
			}
			for r := 1; r <= rounds; r++ {
				state := mkState(r, budget, evolvePool(r, n, d), d)
				want := cont.Select(state)
				got := crashed.Select(state)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("round %d: continuous %v vs revived %v", r, want, got)
				}
				assertValidSelection(t, want, n, budget)
				// Simulate kill -9 + restart between every round: the only
				// thing that survives is the JSON state snapshot.
				raw, err := json.Marshal(crashed.StateSnapshot())
				if err != nil {
					t.Fatal(err)
				}
				var st RoundSelectorState
				if err := json.Unmarshal(raw, &st); err != nil {
					t.Fatal(err)
				}
				crashed, err = NewRoundSelectorFromState(st)
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestRoundSelectorMatchesBALReference(t *testing.T) {
	// The RoundSelector's "bal" kind must reproduce a reference BAL that
	// follows the same reseed-per-round protocol — this is the trace the
	// collector e2e test replays over HTTP.
	rs, err := NewRoundSelector("bal", 11)
	if err != nil {
		t.Fatal(err)
	}
	var ref BALState
	for r := 1; r <= 4; r++ {
		state := mkState(r, 12, evolvePool(r, 64, 3), 3)
		got := rs.Select(state)
		b := NewBAL(rs.roundSeed(r), BALConfig{})
		b.RestoreState(ref)
		want := b.Select(state)
		ref = b.StateSnapshot()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: RoundSelector %v vs reference BAL %v", r, got, want)
		}
	}
}

func TestRoundSelectorUnknownKind(t *testing.T) {
	if _, err := NewRoundSelector("thompson", 1); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	rs, err := NewRoundSelector("", 1)
	if err != nil || rs.Name() != "bal" {
		t.Fatalf("empty kind should default to bal, got %v err %v", rs, err)
	}
}

// TestRoundSelectorStateDropsRetiredFields revives a state an older build
// wrote, with a fallback history and a non-empty "ccmab" object: both
// decode into nothing, and the state written back keeps the reserved
// "ccmab" key empty.
func TestRoundSelectorStateDropsRetiredFields(t *testing.T) {
	const old = `{"kind":"bal","seed":3,"bal":{"prev_fired":[1,2],"has_prev":true,"fell_back":[2,3]},"ccmab":{"counts":{"0":2},"sums":{"0":1}}}`
	var st RoundSelectorState
	if err := json.Unmarshal([]byte(old), &st); err != nil {
		t.Fatal(err)
	}
	rs, err := NewRoundSelectorFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rs.StateSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"kind":"bal","seed":3,"bal":{"prev_fired":[1,2],"has_prev":true},"ccmab":{}}`; string(got) != want {
		t.Fatalf("got %s want %s", got, want)
	}
}
