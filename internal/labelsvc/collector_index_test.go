package labelsvc_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/export"
	"omg/internal/labelsvc"
)

// This file holds a real collector's label loop — real stores, real ring
// overflow, real compaction — to the full-rebuild oracle in
// reference_test.go. It lives here rather than in internal/export because
// the oracle is labelsvc test code; an external test package may import
// export without a cycle.

var collectorAssertions = []string{"lights", "track:flicker", "track:attr:color", "zebra"}

// collectorViolation draws from few streams, samples and severities, so
// that the same (assertion, stream, sample) recurs with the same and with
// different severities, some of them <= 0.
func collectorViolation(rng *rand.Rand) assertion.Violation {
	sevs := []float64{-2, 0, 0.5, 1, 1, 2.5, 4}
	sample := rng.Intn(60)
	return assertion.Violation{
		Assertion:   collectorAssertions[rng.Intn(len(collectorAssertions))],
		Stream:      fmt.Sprintf("cam-%d", rng.Intn(5)),
		SampleIndex: sample,
		Time:        float64(sample) / 10,
		Severity:    sevs[rng.Intn(len(sevs))],
	}
}

type collectorShape struct {
	store  string
	shards int
}

var collectorShapes = []collectorShape{{"mem", 1}, {"mem", 3}, {"disk", 1}, {"disk", 3}}

func (s collectorShape) String() string { return fmt.Sprintf("%s-%dshards", s.store, s.shards) }

func openShape(t *testing.T, s collectorShape, cfg export.CollectorConfig) *export.Collector {
	t.Helper()
	cfg.Store, cfg.Shards = s.store, s.shards
	if s.store == "disk" {
		cfg.DataDir = t.TempDir()
		cfg.SegmentBytes = 4 << 10 // several segments, so compaction rewrites more than one
	}
	c, err := export.OpenCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCollectorIndexMatchesFullRebuild is the differential test of the
// live index against the stores that feed it: a seeded random walk over
// multi-source ingest (source-less batches included), ring overflow by
// frames smaller and larger than a shard's ring, CompactNow by age and by
// the per-assertion cap (Compact capped on one shard, budgeted on three),
// and label rounds with partial feedback. After every step — each a
// quiescent point — Pool, Stats and the next batch must equal the
// oracle's over the retained log, byte for byte.
func TestCollectorIndexMatchesFullRebuild(t *testing.T) {
	for _, shape := range collectorShapes {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s-seed%d", shape, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				now := time.Unix(1700000000, 0)
				c := openShape(t, shape, export.CollectorConfig{
					Retain:             45, // 15 a shard on three: frames overflow it both ways
					RetainAge:          time.Second,
					RetainPerAssertion: 14,
					CompactEvery:       time.Hour, // the test compacts by hand
					Labels: labelsvc.Config{
						Seed: seed, LeaseTTL: 30 * time.Second,
						Now: func() time.Time { return now },
					},
				})
				svc := c.Labels()
				check := func(budget int) labelsvc.Batch {
					t.Helper()
					return labelsvc.RequireMatchesReference(t, svc, c.Violations(), budget, "p")
				}
				seq := map[string]uint64{}
				ingest := func(n int) {
					b := export.Batch{Version: export.WireVersion}
					if rng.Intn(5) > 0 {
						b.Source = fmt.Sprintf("edge-%d", rng.Intn(4))
						seq[b.Source]++
						b.Seq = seq[b.Source]
					}
					for i := 0; i < n; i++ {
						b.Violations = append(b.Violations, collectorViolation(rng))
					}
					if got, dup := c.Ingest(b); got != n || dup {
						t.Fatalf("ingest: accepted %d of %d, duplicate=%v", got, n, dup)
					}
				}

				ingest(20)
				if got := svc.IndexStats(); got.Seeds != 0 {
					t.Fatalf("ingest alone seeded the index: %+v", got)
				}
				aged := false
				for step := 0; step < 70; step++ {
					switch op := rng.Intn(13); {
					case op < 6:
						ingest(1 + rng.Intn(8))
					case op == 6:
						ingest(20 + rng.Intn(20)) // larger than a shard's ring
					case op < 9:
						c.CompactNow()
					case op == 9 && !aged:
						// Once: let what is retained age past RetainAge, add
						// fresh violations that must survive, and compact.
						aged = true
						time.Sleep(2100 * time.Millisecond)
						ingest(6)
						c.CompactNow()
					case op == 10:
						now = now.Add(20 * time.Second)
					default:
						b := check(1 + rng.Intn(6))
						var fb []labelsvc.Feedback
						for _, cand := range b.Candidates {
							if rng.Intn(3) > 0 {
								fb = append(fb, labelsvc.Feedback{SampleKey: cand.SampleKey, ModelCorrect: rng.Intn(2) == 0})
							}
						}
						if _, err := svc.ApplyFeedback(fb); err != nil {
							t.Fatal(err)
						}
					}
					check(0)
				}
				if got := svc.IndexStats(); got.Seeds < 1 || got.Adds == 0 || got.Evictions == 0 {
					t.Fatalf("the walk never exercised the fold: %+v", got)
				}
			})
		}
	}
}

// TestCollectorIndexUnderConcurrency runs the same mix with everything at
// once — three sources ingesting (sharing shards, so one source's append
// evicts another's violation before that one's add is queued), the
// retention janitor on a 2 ms period, a puller whose first call is the
// seed, and readers of Stats and Pool — under -race in CI, and compares
// with the oracle once it has all stopped.
func TestCollectorIndexUnderConcurrency(t *testing.T) {
	for _, shape := range collectorShapes {
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			now := time.Unix(1700000000, 0)
			c := openShape(t, shape, export.CollectorConfig{
				Retain:             90,
				RetainPerAssertion: 30,
				CompactEvery:       2 * time.Millisecond,
				Labels:             labelsvc.Config{Seed: 3, LeaseTTL: time.Hour, Now: func() time.Time { return now }},
			})
			svc := c.Labels()
			const batches = 60
			var wg sync.WaitGroup
			for src := 0; src < 3; src++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + src)))
					for seq := uint64(1); seq <= batches; seq++ {
						b := export.Batch{Version: export.WireVersion, Source: fmt.Sprintf("edge-%d", src), Seq: seq}
						for n := 1 + rng.Intn(12); n > 0; n-- {
							b.Violations = append(b.Violations, collectorViolation(rng))
						}
						c.Ingest(b)
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < batches; i++ {
					b, err := svc.Next(3, "racer")
					if err != nil {
						t.Error(err)
						return
					}
					fb := make([]labelsvc.Feedback, 0, len(b.Candidates))
					for _, cand := range b.Candidates {
						fb = append(fb, labelsvc.Feedback{SampleKey: cand.SampleKey})
					}
					if _, err := svc.ApplyFeedback(fb[:len(fb)/2]); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < batches; i++ {
					svc.Stats()
					svc.Pool()
					svc.IndexStats()
				}
			}()
			wg.Wait()
			c.Quiesce() // the janitor has stopped: a quiescent point
			labelsvc.RequireMatchesReference(t, svc, c.Violations(), 8, "p")
			if got := svc.IndexStats(); got.Seeds != 1 {
				t.Fatalf("seeds = %d, want the one first label call", got.Seeds)
			}
		})
	}
}
