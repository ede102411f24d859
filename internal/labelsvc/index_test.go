package labelsvc

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/bandit"
)

// The names a random violation draws from: plain and consistency-generated
// (which carry weak labels), so the axis grows, shrinks and reorders.
var indexTestAssertions = []string{"lights", "track:flicker", "track:attr:color", "zebra", "appear"}

func randomViolation(rng *rand.Rand) assertion.Violation {
	// Few streams, few samples, few severities: collisions — the same
	// (assertion, stream, sample) twice, with the same or another severity
	// — are the point. Severities <= 0 never make a candidate.
	sevs := []float64{-1, 0, 0.5, 1, 1, 2, 3.25}
	return v(
		indexTestAssertions[rng.Intn(len(indexTestAssertions))],
		fmt.Sprintf("cam-%d", rng.Intn(4)),
		rng.Intn(24),
		sevs[rng.Intn(len(sevs))],
	)
}

// take removes and returns n random retained violations.
func (f *fakeSource) take(rng *rand.Rand, n int) []assertion.Violation {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []assertion.Violation
	for ; n > 0 && len(f.vs) > 0; n-- {
		i := rng.Intn(len(f.vs))
		out = append(out, f.vs[i])
		f.vs = append(f.vs[:i], f.vs[i+1:]...)
	}
	return out
}

// TestIndexMatchesFullRebuild drives the service through random
// interleavings of everything that changes the candidate pool — adds (with
// and without a source), evictions, an eviction delivered before its own
// add, a wholesale replacement of the log, RestoreState, label rounds,
// feedback and lease expiry — and after every step holds Pool, Stats and
// (on label steps) the served batch to the full-rebuild oracle, byte for
// byte. The collector-level twin in collector_index_test.go feeds the same
// comparison from real stores.
func TestIndexMatchesFullRebuild(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		kind := bandit.RoundSelectorKinds[int(seed)%len(bandit.RoundSelectorKinds)]
		t.Run(fmt.Sprintf("seed%d-%s", seed, kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			src := &fakeSource{}
			now := time.Unix(1700000000, 0)
			svc := mustNew(t, src, Config{
				Selector: kind, Seed: seed, LeaseTTL: 30 * time.Second,
				Now: func() time.Time { return now },
			})
			check := func(budget int) Batch {
				t.Helper()
				return RequireMatchesReference(t, svc, src.Violations(), budget, "p")
			}
			for step := 0; step < 150; step++ {
				switch op := rng.Intn(20); {
				case op < 7: // ingest
					batch := make([]assertion.Violation, 1+rng.Intn(6))
					for i := range batch {
						batch[i] = randomViolation(rng)
					}
					source := ""
					if rng.Intn(4) > 0 {
						source = fmt.Sprintf("edge-%d", rng.Intn(3))
					}
					src.add(batch...)
					svc.ObserveBatch(source, batch)
				case op < 11: // retention
					svc.ObserveEvicted(src.take(rng, 1+rng.Intn(8)))
				case op == 11: // an eviction that overtakes its own add
					late := randomViolation(rng)
					svc.ObserveEvicted([]assertion.Violation{late})
					// In between, no reader can tell the log ever held it —
					// unless the log holds its twin, which the parked -1
					// hides until the add lands: the fold is exact at
					// quiescent points, and with a twin this is not one.
					if !slices.Contains(src.Violations(), late) {
						check(0)
					}
					svc.ObserveBatch("edge-0", []assertion.Violation{late})
				case op == 12: // the log swapped under the index
					src.take(rng, rng.Intn(10))
					src.add(randomViolation(rng), randomViolation(rng))
					svc.ObserveReplaced()
				case op == 13:
					svc.RestoreState(svc.StateSnapshot())
				case op == 14:
					now = now.Add(20 * time.Second)
				default: // a label round, some of it answered
					b := check(1 + rng.Intn(6))
					var fb []Feedback
					for _, c := range b.Candidates {
						if rng.Intn(3) > 0 {
							fb = append(fb, Feedback{SampleKey: c.SampleKey, ModelCorrect: rng.Intn(2) == 0})
						}
					}
					if _, err := svc.ApplyFeedback(fb); err != nil {
						t.Fatal(err)
					}
				}
				check(0)
			}
			if svc.IndexStats().Seeds < 1 {
				t.Fatalf("index never seeded: %+v", svc.IndexStats())
			}
		})
	}
}

// countingSource counts reads of the log.
type countingSource struct {
	fakeSource
	reads int
}

func (c *countingSource) Violations() []assertion.Violation {
	c.reads++
	return c.fakeSource.Violations()
}

// TestLogIsReadOnlyToSeed pins the replacement: ingest, however much of
// it, never makes a label call read the log again; only RestoreState, a
// replaced log and a feed that outgrew its bound do.
func TestLogIsReadOnlyToSeed(t *testing.T) {
	src := &countingSource{}
	src.add(seedSource(40).vs...)
	svc := mustNew(t, src, Config{})
	svc.ObserveBatch("edge-1", []assertion.Violation{v("lights", "cam-0", 900, 1)})
	if src.reads != 0 || svc.IndexStats().Seeds != 0 {
		t.Fatalf("a service nobody asked for labels read the log: reads=%d %+v", src.reads, svc.IndexStats())
	}
	for i := 0; i < 5; i++ {
		fresh := []assertion.Violation{v("lights", "cam-0", 1000+i, 2)}
		src.add(fresh...)
		svc.ObserveBatch("edge-1", fresh)
		svc.Pool()
		svc.Stats()
		if _, err := svc.Next(2, "p"); err != nil {
			t.Fatal(err)
		}
	}
	if src.reads != 1 {
		t.Fatalf("log read %d times across 5 ingest+pull rounds, want 1 (the seed)", src.reads)
	}
	// The first round's add predates the index: the seed read it.
	if got := svc.IndexStats(); got.Seeds != 1 || got.Adds != 4 || got.Candidates != svc.Stats().Candidates {
		t.Fatalf("index stats = %+v", got)
	}

	svc.RestoreState(svc.StateSnapshot())
	svc.Pool()
	if src.reads != 2 {
		t.Fatalf("RestoreState did not re-seed: reads=%d", src.reads)
	}
	svc.ObserveReplaced()
	svc.Pool()
	if src.reads != 3 {
		t.Fatalf("a replaced log did not re-seed: reads=%d", src.reads)
	}

	// A feed nobody drains is bounded: past the cap the index is dropped
	// (re-reading the log is cheaper than folding that many deltas).
	big := make([]assertion.Violation, minFeedCap/2+1)
	for i := range big {
		big[i] = v("lights", "cam-7", i, 1)
	}
	src.add(big...)
	svc.ObserveBatch("edge-1", big)
	src.add(big...)
	svc.ObserveBatch("edge-1", big)
	if n := len(svc.Pool()); n == 0 || src.reads != 4 {
		t.Fatalf("feed overflow: pool=%d reads=%d, want a re-seed", n, src.reads)
	}
	RequireMatchesReference(t, svc, src.Violations(), 4, "p")
}

// TestStateWriteFailuresAreLoud: a state file that cannot be written must
// not let a pull hand out leases, or a feedback post be acknowledged, as
// if they were durable.
func TestStateWriteFailuresAreLoud(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := seedSource(30)
	svc := mustNew(t, src, Config{StatePath: filepath.Join(dir, "labels.json")})
	b, err := svc.Next(4, "p")
	if err != nil || len(b.Candidates) != 4 {
		t.Fatalf("healthy pull: %v %+v", err, b)
	}

	// The directory goes away (the unwritable-disk stand-in that also
	// stops root): every write of the state file now fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	before, stateBefore := svc.Stats(), svc.StateSnapshot()
	for try := 0; try < 3; try++ {
		if b, err := svc.Next(4, "p"); err == nil || len(b.Candidates) != 0 {
			t.Fatalf("pull with an unwritable state file: err=%v candidates=%d, want an error and none", err, len(b.Candidates))
		} else if !strings.Contains(err.Error(), "write state") {
			t.Fatalf("error does not name the failure: %v", err)
		}
	}
	// A failed pull is taken back whole: retrying against a full disk
	// leases nothing, so the pool does not drain into batches nobody holds.
	if after := svc.Stats(); after != before {
		t.Fatalf("stats after failed pulls = %+v, want the %+v before them", after, before)
	}
	if after := svc.StateSnapshot(); !reflect.DeepEqual(after, stateBefore) {
		t.Fatalf("state after failed pulls = %+v, want %+v", after, stateBefore)
	}
	fb := []Feedback{{SampleKey: b.Candidates[0].SampleKey, Label: "x"}}
	if _, err := svc.ApplyFeedback(fb); err == nil {
		t.Fatal("feedback acknowledged with an unwritable state file")
	}
	svc.ObserveBatch("edge-9", []assertion.Violation{v("lights", "cam-new", 1, 1)})
	if got := svc.IndexStats().StateWriteErrors; got != 5 {
		t.Fatalf("state write errors = %d, want 5 (three pulls, feedback, binding)", got)
	}

	// The disk comes back: the re-posted label is a duplicate, but the
	// post still writes what the failed one could not.
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := svc.ApplyFeedback(fb)
	if err != nil || res.Duplicates != 1 {
		t.Fatalf("retried feedback: %+v %v", res, err)
	}
	revived := mustNew(t, src, Config{StatePath: filepath.Join(dir, "labels.json")})
	if got, want := revived.StateSnapshot(), svc.StateSnapshot(); len(got.Labeled) != 1 || got.Round != want.Round {
		t.Fatalf("revived state = %+v, want the retried write's %+v", got, want)
	}
}
