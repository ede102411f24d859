package export

import (
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/labelsvc"
	"omg/internal/store"
)

func diskCollector(t *testing.T, dir string, shards int) *Collector {
	t.Helper()
	c, err := OpenCollector(CollectorConfig{Store: StoreDisk, DataDir: dir, Shards: shards})
	if err != nil {
		t.Fatalf("OpenCollector: %v", err)
	}
	return c
}

func TestOpenCollectorValidation(t *testing.T) {
	if _, err := OpenCollector(CollectorConfig{Store: "disk"}); err == nil {
		t.Fatal("disk store without DataDir accepted")
	}
	if _, err := OpenCollector(CollectorConfig{Store: "floppy"}); err == nil {
		t.Fatal("unknown store backend accepted")
	}
	// "" and "mem" build the in-memory layout.
	c, err := OpenCollector(CollectorConfig{Store: StoreMem})
	if err != nil {
		t.Fatalf("mem OpenCollector: %v", err)
	}
	defer c.Close()
	if c.durable() {
		t.Fatal("mem collector claims to be durable")
	}

	// A configuration the collector cannot honour is an error on either
	// backend, never a silent fallback.
	corrupt := filepath.Join(t.TempDir(), "labels.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for backend, base := range backendConfigs(t) {
		for name, mutate := range map[string]func(*CollectorConfig){
			"unknown selector":    func(c *CollectorConfig) { c.Labels = labelsvc.Config{Selector: "coin-flip"} },
			"corrupt label state": func(c *CollectorConfig) { c.Labels = labelsvc.Config{StatePath: corrupt} },
			"unreadable label state": func(c *CollectorConfig) {
				c.Labels = labelsvc.Config{StatePath: filepath.Dir(corrupt)} // a directory
			},
		} {
			cfg := base
			mutate(&cfg)
			if c, err := OpenCollector(cfg); err == nil {
				c.Close()
				t.Errorf("%s: %s accepted", backend, name)
			}
		}
	}
}

// TestDiskCollectorRefusesFewerShards: a data dir a 3-shard collector
// wrote must not reopen with 2 shards. Opened narrower, shard-2's
// violations would leave the summary, the query and the label pool while
// marks.log still acknowledged retries of their batches as duplicates.
func TestDiskCollectorRefusesFewerShards(t *testing.T) {
	dir := t.TempDir()
	c := diskCollector(t, dir, 3)
	for i := 0; i < 8; i++ {
		c.Ingest(mkBatch(fmt.Sprintf("edge-%d", i), 1, 1))
	}
	want := c.TotalFired()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	narrow, err := OpenCollector(CollectorConfig{Store: StoreDisk, DataDir: dir, Shards: 2})
	if err == nil {
		narrow.Close()
		t.Fatal("a 3-shard data dir reopened with 2 shards")
	}
	for _, part := range []string{dir, "shard-2", "-shards 3"} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("error %q does not name %q", err, part)
		}
	}
	r := diskCollector(t, dir, 3)
	defer r.Close()
	if got := r.TotalFired(); got != want {
		t.Fatalf("TotalFired after the refused open = %d, want %d", got, want)
	}
}

func TestDiskCollectorCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	c := diskCollector(t, dir, 4)
	for i := 1; i <= 5; i++ {
		c.Ingest(Batch{Source: "edge-a", Seq: uint64(i), Violations: []assertion.Violation{
			{Assertion: "lights", Stream: "cam0", SampleIndex: i, Severity: float64(i)},
			{Assertion: "flicker", Stream: "cam1", SampleIndex: i, Severity: 0.5},
		}})
		c.Ingest(Batch{Source: "edge-b", Seq: uint64(i), Violations: []assertion.Violation{
			{Assertion: "lights", Stream: "cam2", SampleIndex: i, Severity: 1},
		}})
	}
	// A duplicate and a rejected-equivalent counter bump.
	if _, dup := c.Ingest(Batch{Source: "edge-a", Seq: 3}); !dup {
		t.Fatal("retry not detected as duplicate")
	}

	wantTotal := c.TotalFired()
	wantSummary := c.Summary()
	wantViolations := c.Violations()
	wantBatches := c.batches.Load()
	wantDups := c.duplicates.Load()
	c.Quiesce() // do NOT Close: the SIGKILL model — no checkpoint, no fsync

	r := diskCollector(t, dir, 4)
	defer r.Close()
	if got := r.TotalFired(); got != wantTotal {
		t.Fatalf("TotalFired after crash = %d, want %d", got, wantTotal)
	}
	if got := r.Summary(); !reflect.DeepEqual(got, wantSummary) {
		t.Fatalf("Summary after crash = %v, want %v", got, wantSummary)
	}
	if got := r.Violations(); !reflect.DeepEqual(got, wantViolations) {
		t.Fatalf("Violations after crash = %+v, want %+v", got, wantViolations)
	}
	if got := r.batches.Load(); got != wantBatches {
		t.Fatalf("batches after crash = %d, want %d", got, wantBatches)
	}
	if got := r.duplicates.Load(); got != wantDups {
		t.Fatalf("duplicates after crash = %d, want %d", got, wantDups)
	}
	// Dedup marks survived: replaying an applied batch is a duplicate,
	// and the next fresh sequence number applies.
	if _, dup := r.Ingest(Batch{Source: "edge-a", Seq: 5}); !dup {
		t.Fatal("dedup mark lost across crash")
	}
	if n, dup := r.Ingest(Batch{Source: "edge-a", Seq: 6, Violations: []assertion.Violation{
		{Assertion: "lights", SampleIndex: 99, Severity: 1},
	}}); dup || n != 1 {
		t.Fatalf("fresh batch after crash: n=%d dup=%v", n, dup)
	}
}

// TestDiskCollectorStaleSnapshotCannotRollBack: a snapshot that lags a
// data dir's state can never be imported over it — the import refuses
// any non-empty dir, and the recovered state is untouched.
func TestDiskCollectorStaleSnapshotCannotRollBack(t *testing.T) {
	mem := openCollector(t, CollectorConfig{})
	defer mem.Close()
	mem.Ingest(Batch{Source: "s", Seq: 1, Violations: []assertion.Violation{{Assertion: "a", Severity: 1}}})
	stale := legacySnapshot(mem) // the state as of seq 1

	dir := t.TempDir()
	c := diskCollector(t, dir, 1)
	c.Ingest(Batch{Source: "s", Seq: 1, Violations: []assertion.Violation{{Assertion: "a", Severity: 1}}})
	c.Ingest(Batch{Source: "s", Seq: 2, Violations: []assertion.Violation{{Assertion: "a", Severity: 2}}})
	c.Quiesce()

	if err := ImportSnapshot(dir, 1, stale); err == nil {
		t.Fatal("a snapshot was imported over a live data dir")
	}
	r := diskCollector(t, dir, 1)
	defer r.Close()
	if got := r.TotalFired(); got != 2 {
		t.Fatalf("TotalFired rolled back to %d by stale snapshot", got)
	}
	if _, dup := r.Ingest(Batch{Source: "s", Seq: 2}); !dup {
		t.Fatal("dedup mark rolled back by stale snapshot")
	}
}

func TestDiskCollectorMetricsAndSummaryShape(t *testing.T) {
	c := diskCollector(t, t.TempDir(), 1)
	defer c.Close()
	c.Ingest(Batch{Violations: []assertion.Violation{{Assertion: "a", Severity: 1}}})

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	body := string(getBody(t, srv.URL+"/metrics", 200))
	for _, metric := range []string{"omg_collector_segments ", "omg_collector_segments_bytes "} {
		if !strings.Contains(body, metric) {
			t.Fatalf("metrics missing %q:\n%s", metric, body)
		}
	}
	if !strings.Contains(body, "omg_collector_segments 1") {
		t.Fatalf("expected one live segment:\n%s", body)
	}
	sum := string(getBody(t, srv.URL+"/v1/summary", 200))
	if !strings.Contains(sum, `"store":"disk"`) {
		t.Fatalf("summary missing store backend: %s", sum)
	}

	info := c.StoreInfo()
	if info.Backend != "segment" || info.Entries != 1 || info.Bytes == 0 {
		t.Fatalf("StoreInfo = %+v", info)
	}
}

func TestDiskCollectorLegacySnapshotMigrates(t *testing.T) {
	// A snapshot written by a mem-backed collector imports into a data
	// dir: the embedded violations become segments.
	mem := openCollector(t, CollectorConfig{})
	mem.Ingest(Batch{Source: "s", Seq: 1, Violations: []assertion.Violation{
		{Assertion: "a", Stream: "x", SampleIndex: 1, Severity: 2},
		{Assertion: "b", Stream: "y", SampleIndex: 2, Severity: 3},
	}})
	legacy := legacySnapshot(mem)
	mem.Close()

	dir := t.TempDir()
	if err := ImportSnapshot(dir, 1, legacy); err != nil {
		t.Fatal(err)
	}
	c := diskCollector(t, dir, 1)
	want := c.Violations()
	if len(want) != 2 || c.TotalFired() != 2 {
		t.Fatalf("migration lost data: %+v", want)
	}
	c.Quiesce() // crash

	r := diskCollector(t, dir, 1)
	defer r.Close()
	if got := r.Violations(); !reflect.DeepEqual(got, want) {
		t.Fatalf("migrated state not durable: %+v want %+v", got, want)
	}
}

// TestDiskCollectorHugeSeveritiesSaturate: two finite severities whose
// sum overflows float64 saturate at MaxFloat64 instead of reaching +Inf,
// which checkpoint.json cannot encode. Compaction must not degrade the
// collector, Close must succeed, and the reopened stats must be equal.
func TestDiskCollectorHugeSeveritiesSaturate(t *testing.T) {
	cfg := CollectorConfig{Store: StoreDisk, DataDir: t.TempDir(), RetainPerAssertion: 1, CompactEvery: time.Hour}
	c, err := OpenCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Ingest(Batch{Source: "edge", Seq: 1, Violations: []assertion.Violation{
		{Assertion: "huge", Stream: "s", SampleIndex: 1, Severity: 1e308},
		{Assertion: "huge", Stream: "s", SampleIndex: 2, Severity: 1e308},
	}})
	if n := c.CompactNow(); n != 1 {
		t.Fatalf("CompactNow evicted %d, want 1", n)
	}
	if err := c.DegradedCause(); err != nil {
		t.Fatalf("collector degraded: %v", err)
	}
	want := c.shards[0].StatsAll()
	if st := want["huge"]; st.Fired != 2 || st.TotalSev != math.MaxFloat64 || st.MaxSev != 1e308 {
		t.Fatalf("stats = %+v, want TotalSev saturated at MaxFloat64", st)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := OpenCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.shards[0].StatsAll(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats after reopen = %+v, want %+v", got, want)
	}
}

func TestDiskCollectorMarksFile(t *testing.T) {
	dir := t.TempDir()
	c := diskCollector(t, dir, 1)
	c.Ingest(Batch{Source: "s", Seq: 1, Violations: []assertion.Violation{{Assertion: "a", Severity: 1}}})
	c.Close()
	data, err := os.ReadFile(filepath.Join(dir, marksName))
	if err != nil {
		t.Fatalf("marks log missing: %v", err)
	}
	if !strings.Contains(string(data), `"src":"s"`) {
		t.Fatalf("marks log missing source mark: %s", data)
	}
}

// TestOpenCollectorShardFailureClosesTheRest opens a 4-shard data dir
// whose shard-1 and shard-3 each hold a sealed segment damaged mid-file.
// The shards open concurrently; the open must fail with ErrCorrupt naming
// shard-1's segment, the lowest-numbered failure, and close every shard
// store that did open — a closed store writes its checkpoint, which the
// healthy shards here start without. Once the segments are restored, the
// same dir must open with everything in it.
func TestOpenCollectorShardFailureClosesTheRest(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	cfg := CollectorConfig{Store: StoreDisk, DataDir: dir, Shards: shards, SegmentBytes: 1 << 10}
	c, err := OpenCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perShard := make([]int, shards)
	for i := 0; slices.Contains(perShard, 0); i++ {
		src := fmt.Sprintf("edge-%02d", i)
		c.Ingest(mkBatch(src, 1, 40))
		perShard[assertion.ShardFor(src, shards)] += 40
	}
	total := c.TotalFired()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	healthy, damaged := []int{0, 2}, []int{1, 3}
	good := make(map[string][]byte)
	for _, i := range damaged {
		seg := filepath.Join(shardDir(dir, i), "seg-00000001.log")
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		good[seg] = slices.Clone(data)
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range healthy {
		if err := os.Remove(filepath.Join(shardDir(dir, i), "checkpoint.json")); err != nil {
			t.Fatal(err)
		}
	}

	bad := filepath.Join(shardDir(dir, 1), "seg-00000001.log")
	if c, err := OpenCollector(cfg); err == nil {
		c.Close()
		t.Fatal("OpenCollector accepted shards with a corrupt sealed segment")
	} else if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), bad) {
		t.Fatalf("OpenCollector = %v, want ErrCorrupt naming %s", err, bad)
	}
	for _, i := range healthy {
		if _, err := os.Stat(filepath.Join(shardDir(dir, i), "checkpoint.json")); err != nil {
			t.Fatalf("shard %d was opened and not closed: %v", i, err)
		}
	}

	for seg, data := range good {
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err = OpenCollector(cfg)
	if err != nil {
		t.Fatalf("OpenCollector after the segments were restored: %v", err)
	}
	defer c.Close()
	if got := c.TotalFired(); got != total {
		t.Fatalf("reopened with %d violations, want %d", got, total)
	}
	for i, st := range c.shards {
		if got := st.TotalFired(); got != perShard[i] {
			t.Fatalf("shard %d reopened with %d violations, want %d", i, got, perShard[i])
		}
	}
}
