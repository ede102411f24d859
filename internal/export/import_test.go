package export

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omg/internal/assertion"
)

// legacySnapshot builds the snapshot file a sharded mem collector used to
// write from c: one recorder per shard and their merged view, and the
// dedup marks, counters and label state.
func legacySnapshot(c *Collector) Snapshot {
	s := Snapshot{
		Version:    WireVersion,
		LastSeq:    make(map[string]uint64),
		Batches:    c.batches.Load(),
		Duplicates: c.duplicates.Load(),
		Rejected:   c.rejected.Load(),
	}
	c.mu.Lock()
	for src, st := range c.sources {
		s.LastSeq[src] = st.lastSeq.Load()
	}
	c.mu.Unlock()
	labels := c.labels.StateSnapshot()
	s.Labels = &labels
	for _, st := range c.shards {
		s.Recorders = append(s.Recorders, snapshotOf(st))
	}
	s.Recorder = assertion.MergeRecorderSnapshots(s.Recorders...)
	return s
}

// snapshotOf captures a store's state as a legacy snapshot file holds it.
func snapshotOf(st assertion.ViolationStore) assertion.RecorderSnapshot {
	return assertion.RecorderSnapshot{
		Stats:      st.StatsAll(),
		Violations: st.Query(assertion.StoreQuery{}),
		LogDropped: st.Dropped(),
		Compacted:  st.Compacted(),
	}
}

// importInto imports s into a fresh data directory and opens a disk
// collector of the same shard count on it.
func importInto(t *testing.T, s Snapshot, shards int) *Collector {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data") // absent: the import creates it
	if err := ImportSnapshot(dir, shards, s); err != nil {
		t.Fatalf("ImportSnapshot: %v", err)
	}
	c := openCollector(t, CollectorConfig{Store: StoreDisk, DataDir: dir, Shards: shards})
	t.Cleanup(func() { c.Close() })
	return c
}

// writeSnapshotFile writes s as an indented JSON file, the way collectors
// wrote snapshot files.
func writeSnapshotFile(t *testing.T, path string, s Snapshot) {
	t.Helper()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestImportSnapshotIsExactlyOnce imports snapshot-v2.json and reopens the
// data directory: the dedup marks and request counters must come back
// from marks.log, so the snapshot's replayed (edge-b, 2) is a duplicate,
// not a second application.
func TestImportSnapshotIsExactlyOnce(t *testing.T) {
	snap, err := ReadSnapshotFile(filepath.Join("testdata", "snapshot-v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := importInto(t, snap, 2)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	summary := func() SummaryResponse {
		var sum SummaryResponse
		if err := json.Unmarshal(getBody(t, srv.URL+"/v1/summary", 200), &sum); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	if sum := summary(); sum.TotalFired != 82 || sum.Batches != 6 || sum.DuplicateBatches != 1 || sum.Rejected != 1 || sum.Sources != 3 {
		t.Fatalf("after import: %+v, want 82 fired, batches/duplicates/rejected 6/1/1 from 3 sources", sum)
	}
	replay := Batch{Version: WireVersion, Source: "edge-b", Seq: 2,
		Violations: []assertion.Violation{{Assertion: "lights", Stream: "cam-1", SampleIndex: 1, Severity: 1}}}
	if r := postBatch(t, srv.URL, replay); !r.Duplicate || r.Accepted != 0 {
		t.Fatalf("replayed (edge-b, 2) answered %+v, want a duplicate", r)
	}
	if sum := summary(); sum.TotalFired != 82 || sum.DuplicateBatches != 2 {
		t.Fatalf("after the replay: %+v, want 82 fired and 2 duplicates", sum)
	}
	replay.Seq = 3
	if r := postBatch(t, srv.URL, replay); r.Duplicate || r.Accepted != 1 {
		t.Fatalf("fresh (edge-b, 3) answered %+v, want accepted", r)
	}
}

// TestDiskCollectorSnapshotIsCheap: a disk collector's snapshot carried
// a segment manifest per shard and none of the violations, so it is
// refused by the import — never imported as statistics without a log —
// and the refusal writes nothing.
func TestDiskCollectorSnapshotIsCheap(t *testing.T) {
	disk, err := ReadSnapshotFile(filepath.Join("testdata", "snapshot-disk-v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range disk.Recorders {
		if len(r.Violations) != 0 || r.Store == nil {
			t.Fatalf("fixture shard %d: %d violations, store %s; want a manifest and no log", i, len(r.Violations), r.Store)
		}
	}
	dir := t.TempDir()
	if err := ImportSnapshot(dir, 2, disk); err == nil || !strings.Contains(err.Error(), "disk collector") {
		t.Fatalf("disk-written snapshot: err = %v, want a refusal naming the disk collector", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("a refused import wrote %d entries", len(ents))
	}
}
