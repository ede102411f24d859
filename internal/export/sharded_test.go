package export

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/simrand"
)

// metricsBody renders the collector's /metrics endpoint.
func metricsBody(t *testing.T, c *Collector) string {
	t.Helper()
	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	return rr.Body.String()
}

// fillFleet ingests the same deterministic multi-source workload into a
// collector and returns the expected per-assertion counts.
func fillFleet(c *Collector, sources, batches, perBatch int) map[string]int {
	want := make(map[string]int)
	for s := 0; s < sources; s++ {
		source := fmt.Sprintf("edge-%02d", s)
		for bi := 0; bi < batches; bi++ {
			b := Batch{Version: WireVersion, Source: source, Seq: uint64(bi + 1)}
			for i := 0; i < perBatch; i++ {
				name := "a"
				if (s+bi+i)%3 == 0 {
					name = "b"
				}
				b.Violations = append(b.Violations, assertion.Violation{
					Assertion: name, Stream: source, SampleIndex: bi*perBatch + i,
					Time: float64(bi*perBatch+i) / 10, Severity: 1,
				})
				want[name]++
			}
			c.Ingest(b)
		}
	}
	return want
}

func TestShardedCollectorMergedViewsMatchSingleShard(t *testing.T) {
	single := openCollector(t, CollectorConfig{})
	sharded := openCollector(t, CollectorConfig{Shards: 4})
	defer single.Close()
	defer sharded.Close()
	want := fillFleet(single, 6, 3, 10)
	fillFleet(sharded, 6, 3, 10)

	if sharded.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", sharded.NumShards())
	}
	if got, wantTotal := sharded.TotalFired(), single.TotalFired(); got != wantTotal {
		t.Fatalf("sharded TotalFired = %d, single = %d", got, wantTotal)
	}
	if got := sharded.Summary(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded Summary = %v, want %v", got, want)
	}
	// The merged violation views agree after normalising to merge order.
	sv, shv := single.Violations(), sharded.Violations()
	assertion.SortViolations(sv)
	if !reflect.DeepEqual(stripIngest(sv), stripIngest(shv)) {
		t.Fatalf("sharded Violations diverged: %d vs %d entries", len(shv), len(sv))
	}
	sb, shb := single.ByAssertion("b"), sharded.ByAssertion("b")
	assertion.SortViolations(sb)
	if !reflect.DeepEqual(stripIngest(sb), stripIngest(shb)) {
		t.Fatalf("sharded ByAssertion diverged: %d vs %d entries", len(shb), len(sb))
	}
	// Dedup still applies per source across shards.
	if n, dup := sharded.Ingest(Batch{Version: WireVersion, Source: "edge-00", Seq: 1,
		Violations: []assertion.Violation{{Assertion: "a", Severity: 1}}}); n != 0 || !dup {
		t.Fatalf("retry on sharded collector: accepted %d dup %v", n, dup)
	}
}

// stripIngest zeroes the collector-stamped ingest time so views ingested
// at different wall-clock seconds still compare equal.
func stripIngest(vs []assertion.Violation) []assertion.Violation {
	out := make([]assertion.Violation, len(vs))
	for i, v := range vs {
		v.IngestUnix = 0
		out[i] = v
	}
	return out
}

func TestShardedCollectorConcurrentIngest(t *testing.T) {
	c := openCollector(t, CollectorConfig{Shards: 8, Retain: 4096})
	defer c.Close()
	const sources, batches, perBatch = 16, 20, 25
	var wg sync.WaitGroup
	for s := 0; s < sources; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			source := fmt.Sprintf("edge-%02d", s)
			for bi := 0; bi < batches; bi++ {
				b := Batch{Version: WireVersion, Source: source, Seq: uint64(bi + 1)}
				for i := 0; i < perBatch; i++ {
					b.Violations = append(b.Violations, assertion.Violation{
						Assertion: "a", Stream: source, SampleIndex: bi*perBatch + i, Severity: 1,
					})
				}
				c.Ingest(b)
				c.Ingest(b) // immediate retry must dedup
			}
		}(s)
	}
	wg.Wait()
	if got, want := c.TotalFired(), sources*batches*perBatch; got != want {
		t.Fatalf("TotalFired = %d, want %d", got, want)
	}
	if got := c.duplicates.Load(); got != sources*batches {
		t.Fatalf("duplicates = %d, want %d", got, sources*batches)
	}
}

// TestShardedCollectorSnapshotRoundTrip imports a 4-shard collector's
// legacy snapshot into data dirs of every shape: the merged views and the
// dedup marks must come back whatever the shard count.
func TestShardedCollectorSnapshotRoundTrip(t *testing.T) {
	src := openCollector(t, CollectorConfig{Shards: 4})
	defer src.Close()
	fillFleet(src, 6, 3, 10)
	snap := legacySnapshot(src)

	check := func(t *testing.T, restored *Collector) {
		t.Helper()
		if got, want := restored.TotalFired(), src.TotalFired(); got != want {
			t.Fatalf("restored TotalFired = %d, want %d", got, want)
		}
		if !reflect.DeepEqual(restored.Summary(), src.Summary()) {
			t.Fatalf("restored Summary = %v, want %v", restored.Summary(), src.Summary())
		}
		if got, want := stripIngest(restored.Violations()), stripIngest(src.Violations()); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored Violations diverged: %d vs %d entries", len(got), len(want))
		}
		// Dedup marks survive the round-trip.
		if n, dup := restored.Ingest(Batch{Version: WireVersion, Source: "edge-03", Seq: 2,
			Violations: []assertion.Violation{{Assertion: "a", Severity: 1}}}); n != 0 || !dup {
			t.Fatalf("retry after restore: accepted %d dup %v", n, dup)
		}
		if n, dup := restored.Ingest(mkBatch("edge-03", 4, 1)); n != 1 || dup {
			t.Fatalf("fresh batch after restore: accepted %d dup %v", n, dup)
		}
	}

	t.Run("same-shard-count", func(t *testing.T) {
		check(t, importInto(t, snap, 4))
	})
	t.Run("different-shard-count", func(t *testing.T) {
		check(t, importInto(t, snap, 7))
	})
	t.Run("into-single-shard", func(t *testing.T) {
		check(t, importInto(t, snap, 1))
	})
	t.Run("legacy-single-into-sharded", func(t *testing.T) {
		single := openCollector(t, CollectorConfig{})
		defer single.Close()
		fillFleet(single, 6, 3, 10)
		snap := legacySnapshot(single)
		snap.Recorders = nil // the single-shard form: the lone Recorder
		restored := importInto(t, snap, 4)
		if got, want := restored.TotalFired(), single.TotalFired(); got != want {
			t.Fatalf("restored TotalFired = %d, want %d", got, want)
		}
		if !reflect.DeepEqual(restored.Summary(), single.Summary()) {
			t.Fatalf("restored Summary = %v, want %v", restored.Summary(), single.Summary())
		}
	})
}

func TestShardedSnapshotFileRoundTrip(t *testing.T) {
	src := openCollector(t, CollectorConfig{Shards: 3})
	defer src.Close()
	fillFleet(src, 5, 2, 8)
	path := t.TempDir() + "/state.json"
	writeSnapshotFile(t, path, legacySnapshot(src))
	loaded, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := importInto(t, loaded, 3)
	if got, want := restored.TotalFired(), src.TotalFired(); got != want {
		t.Fatalf("file round-trip TotalFired = %d, want %d", got, want)
	}
}

func TestCollectorRejectedSurvivesSnapshot(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	c.rejected.Add(3)
	c.Ingest(mkBatch("edge-01", 1, 2))
	restored := importInto(t, legacySnapshot(c), 1)
	if got := restored.rejected.Load(); got != 3 {
		t.Fatalf("restored rejected = %d, want 3", got)
	}
}

func TestCollectorRetention(t *testing.T) {
	c := openCollector(t, CollectorConfig{Shards: 2, RetainPerAssertion: 4, CompactEvery: time.Hour})
	defer c.Close()
	fillFleet(c, 4, 2, 10) // 80 violations over assertions a and b
	total := c.TotalFired()
	evicted := c.CompactNow()
	if evicted == 0 {
		t.Fatal("retention evicted nothing")
	}
	if got := c.RetentionEvicted(); got != int64(evicted) {
		t.Fatalf("RetentionEvicted = %d, CompactNow returned %d", got, evicted)
	}
	// The cap is global and exact: both assertions fired well over 4
	// times, so each retains exactly 4 regardless of how their sources
	// spread over the shards.
	perAssertion := make(map[string]int)
	for _, v := range c.Violations() {
		perAssertion[v.Assertion]++
	}
	for name, n := range perAssertion {
		if n != 4 {
			t.Fatalf("assertion %q retains %d violations, want exactly 4", name, n)
		}
	}
	// Aggregate counts are untouched by retention.
	if got := c.TotalFired(); got != total {
		t.Fatalf("TotalFired changed across compaction: %d -> %d", total, got)
	}
	// A second compaction with no new ingest evicts nothing further.
	if n := c.CompactNow(); n != 0 {
		t.Fatalf("idle recompaction evicted %d", n)
	}
}

func TestCollectorRetentionPerAssertionGlobalUnderSkew(t *testing.T) {
	// All of one assertion's violations come from a single source and so
	// land on one shard. A per-shard split of the cap would under-retain
	// (cap/shards); the global plan must keep exactly the cap.
	c := openCollector(t, CollectorConfig{Shards: 4, RetainPerAssertion: 10, CompactEvery: time.Hour})
	defer c.Close()
	b := Batch{Version: WireVersion, Source: "lone-edge", Seq: 1}
	for i := 0; i < 50; i++ {
		b.Violations = append(b.Violations, assertion.Violation{
			Assertion: "skewed", Stream: "lone-edge", SampleIndex: i, Severity: 1,
		})
	}
	c.Ingest(b)
	if n := c.CompactNow(); n != 40 {
		t.Fatalf("skewed compaction evicted %d, want 40", n)
	}
	vs := c.ByAssertion("skewed")
	if len(vs) != 10 {
		t.Fatalf("skewed assertion retains %d, want the global cap of 10", len(vs))
	}
	// And it kept the newest ones.
	for i, v := range vs {
		if v.SampleIndex != 40+i {
			t.Fatalf("retained[%d].SampleIndex = %d, want %d", i, v.SampleIndex, 40+i)
		}
	}
}

func TestCollectorRetentionAge(t *testing.T) {
	src := openCollector(t, CollectorConfig{RetainAge: time.Hour, CompactEvery: time.Hour})
	defer src.Close()
	src.Ingest(mkBatch("edge-01", 1, 5))
	// Nothing is an hour old yet.
	if n := src.CompactNow(); n != 0 {
		t.Fatalf("fresh violations evicted: %d", n)
	}
	// Age the retained violations: import them stamped two hours back.
	old := time.Now().Add(-2 * time.Hour).Unix()
	snap := snapshotOf(src.shards[0])
	for i := range snap.Violations {
		snap.Violations[i].IngestUnix = old
	}
	dir := t.TempDir()
	if err := ImportSnapshot(dir, 1, Snapshot{Version: WireVersion, Recorder: snap}); err != nil {
		t.Fatal(err)
	}
	c := openCollector(t, CollectorConfig{Store: StoreDisk, DataDir: dir, RetainAge: time.Hour, CompactEvery: time.Hour})
	defer c.Close()
	if n := c.CompactNow(); n != 5 {
		t.Fatalf("aged violations evicted = %d, want 5", n)
	}
	if got := len(c.Violations()); got != 0 {
		t.Fatalf("retained %d violations after age eviction", got)
	}
	if got := c.TotalFired(); got != 5 {
		t.Fatalf("TotalFired = %d, want 5 (stats survive retention)", got)
	}
}

func TestCollectorJanitorRunsOnTimer(t *testing.T) {
	c := openCollector(t, CollectorConfig{RetainPerAssertion: 1, CompactEvery: 10 * time.Millisecond})
	defer c.Close()
	c.Ingest(mkBatch("edge-01", 1, 10))
	deadline := time.Now().Add(5 * time.Second)
	for c.RetentionEvicted() < 9 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.RetentionEvicted(); got != 9 {
		t.Fatalf("janitor evicted %d violations, want 9", got)
	}
	metrics := metricsBody(t, c)
	if !strings.Contains(metrics, "omg_collector_retention_evictions_total 9") {
		t.Fatalf("metrics missing retention evictions:\n%s", metrics)
	}
}

// TestCompactPerAssertionMatchesWholeLogRanking holds the run-length plan
// to the ranking it replaced: copy every shard's whole retained log, rank
// each over-cap assertion's violations newest-first by ingest stamp
// (shards in order, arrival order within one, stable among equal stamps)
// and keep the first cap. Stamps repeat, differ across shards and step
// backwards, so ties at the cut and non-monotone shards both occur.
func TestCompactPerAssertionMatchesWholeLogRanking(t *testing.T) {
	for _, backend := range []string{StoreMem, StoreDisk} {
		for seed := int64(1); seed <= 20; seed++ {
			const shards, maxPer = 3, 7
			c := openCollector(t, CollectorConfig{Store: backend, DataDir: t.TempDir(), Shards: shards,
				RetainPerAssertion: maxPer, CompactEvery: time.Hour})
			rng := simrand.New(seed)
			for i := 0; i < 120; i++ {
				v := assertion.Violation{
					Assertion:   fmt.Sprintf("a%d", rng.Choice(4)),
					Stream:      "s",
					SampleIndex: i,
					Severity:    1,
					IngestUnix:  int64(1000 + i/25 - rng.Choice(2)*rng.Choice(3)),
				}
				if err := c.shards[rng.Choice(shards)].Append(v); err != nil {
					t.Fatal(err)
				}
			}

			type slot struct {
				shard  int
				ingest int64
			}
			perAssertion := make(map[string][]slot)
			retained := make([][]assertion.Violation, shards)
			for si, st := range c.shards {
				retained[si] = st.Query(assertion.StoreQuery{})
				for i := len(retained[si]) - 1; i >= 0; i-- {
					v := retained[si][i]
					perAssertion[v.Assertion] = append(perAssertion[v.Assertion], slot{si, v.IngestUnix})
				}
			}
			// budget[shard][assertion]: how many of the global newest cap
			// live there; a shard then keeps its newest that many.
			budget := make([]map[string]int, shards)
			for si := range budget {
				budget[si] = make(map[string]int)
			}
			for name, slots := range perAssertion {
				sort.SliceStable(slots, func(i, j int) bool { return slots[i].ingest > slots[j].ingest })
				for _, s := range slots[:min(maxPer, len(slots))] {
					budget[s.shard][name]++
				}
			}
			evicted := 0
			for si := range c.shards {
				var want []assertion.Violation
				for i := len(retained[si]) - 1; i >= 0; i-- {
					if v := retained[si][i]; budget[si][v.Assertion] > 0 {
						budget[si][v.Assertion]--
						want = append([]assertion.Violation{v}, want...)
					}
				}
				evicted += len(retained[si]) - len(want)
				retained[si] = want
			}

			if got := c.CompactNow(); got != evicted {
				t.Fatalf("%s seed %d: CompactNow evicted %d, the whole-log ranking evicts %d", backend, seed, got, evicted)
			}
			for si, st := range c.shards {
				if got := st.Query(assertion.StoreQuery{}); len(got) != len(retained[si]) || (len(got) > 0 && !reflect.DeepEqual(got, retained[si])) {
					t.Fatalf("%s seed %d shard %d retains\n got %+v\nwant %+v", backend, seed, si, got, retained[si])
				}
			}
			c.Close()
		}
	}
}
