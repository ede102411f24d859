package store

import (
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"omg/internal/assertion"
)

// fill appends n violations across a few assertions/streams.
func fill(t *testing.T, s assertion.ViolationStore, n int) []assertion.Violation {
	t.Helper()
	var vs []assertion.Violation
	for i := 1; i <= n; i++ {
		v := mkv("a"+string(rune('0'+i%3)), "cam"+string(rune('0'+i%2)), i, float64(i%7), int64(1000+i))
		if err := s.Append(v); err != nil {
			t.Fatalf("Append: %v", err)
		}
		vs = append(vs, v)
	}
	return vs
}

// assertSame asserts a store holds exactly want's retained log,
// statistics and compaction count, and the lifetime total its statistics
// add up to.
func assertSame(t *testing.T, got assertion.ViolationStore, want assertion.RecorderSnapshot) {
	t.Helper()
	if g := got.Query(Query{}); !slices.Equal(g, want.Violations) {
		t.Fatalf("Violations mismatch:\n got %+v\nwant %+v", g, want.Violations)
	}
	if g := got.StatsAll(); !maps.Equal(g, want.Stats) {
		t.Fatalf("StatsAll mismatch:\n got %+v\nwant %+v", g, want.Stats)
	}
	total := 0
	for _, st := range want.Stats {
		total += st.Fired
	}
	if g := got.TotalFired(); g != total {
		t.Fatalf("TotalFired = %d, want %d", g, total)
	}
	if g, w := got.Compacted(), want.Compacted; g != w {
		t.Fatalf("Compacted = %d, want %d", g, w)
	}
}

func TestSegmentReopenAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 50)
	mirror := mirrorOf(s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Append(mkv("x", "s", 1, 1, 1)); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}

	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	assertSame(t, r, mirror)
}

// mirrorOf copies a store's retained log, statistics and eviction count:
// the state a reopened SegmentStore must equal.
func mirrorOf(s assertion.ViolationStore) assertion.RecorderSnapshot {
	return assertion.RecorderSnapshot{Stats: s.StatsAll(), Violations: s.Query(Query{}), Compacted: s.Compacted()}
}

// TestImportWritesAFreshStore: a legacy snapshot — a bounded, compacted
// mem store's state — imports as a closed store that opens to exactly that
// state, eviction counters included, folds later appends once, and is
// never imported over.
func TestImportWritesAFreshStore(t *testing.T) {
	src := assertion.NewMemStore(5)
	fill(t, src, 8)
	if _, err := src.Compact(0, 1); err != nil {
		t.Fatal(err)
	}
	snap := mirrorOf(src)
	snap.LogDropped = src.Dropped()
	if snap.LogDropped != 3 || snap.Compacted != 2 {
		t.Fatalf("source store dropped %d and compacted %d, want 3 and 2", snap.LogDropped, snap.Compacted)
	}

	cfg := Config{Dir: filepath.Join(t.TempDir(), "shard-0"), SegmentBytes: 40} // absent; a roll per record
	if err := Import(cfg, snap); err != nil {
		t.Fatalf("Import: %v", err)
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatalf("open the imported dir: %v", err)
	}
	assertSame(t, r, snap)
	if r.Dropped() != 3 || r.Info().Segments < 3 {
		t.Fatalf("imported store: dropped %d, %+v; want 3 and several segments", r.Dropped(), r.Info())
	}
	if err := r.Append(mkv("a1", "cam0", 9, 1, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if err := Import(cfg, snap); err == nil || !strings.Contains(err.Error(), "already holds a store") {
		t.Fatalf("Import over a store: err = %v, want a refusal", err)
	}
	again, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := again.TotalFired(); got != 9 {
		t.Fatalf("TotalFired after the refused import = %d, want 9", got)
	}
}

func TestSegmentCrashRecoveryWithoutClose(t *testing.T) {
	// Sync (not Close) then abandon: everything handed to write(2) must
	// recover exactly — the SIGKILL model.
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, SegmentBytes: 2 << 10}) // force rolls
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 200)
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	mirror := mirrorOf(s)
	// Abandon without Close — the open fd is irrelevant to the new store.

	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	assertSame(t, r, mirror)
	if r.Info().Segments < 2 {
		t.Fatalf("expected multiple segments, got %+v", r.Info())
	}
	// Recovery resumes appends with fresh sequence numbers.
	if err := r.Append(mkv("post", "s", 1, 1, 2000)); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if got := r.TotalFired(); got != 201 {
		t.Fatalf("TotalFired after recovery append = %d, want 201", got)
	}
}

func TestSegmentTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 10)
	s.Sync()
	name := filepath.Join(dir, segName(1))
	fi, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	good := fi.Size()
	// A crash mid-write leaves a partial record at the tail.
	f, _ := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{42, 0, 0, 0, 99, 99}) // header fragment
	f.Close()

	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer r.Close()
	if got := r.TotalFired(); got != 10 {
		t.Fatalf("TotalFired = %d, want 10", got)
	}
	if fi, _ := os.Stat(name); fi.Size() != good {
		t.Fatalf("torn tail not truncated: size %d, want %d", fi.Size(), good)
	}
}

func TestSegmentMidFileCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 100) // several segments
	s.Close()
	// Flip a byte in the middle of the FIRST segment: not a torn tail.
	name := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(name)
	data[len(data)/2] ^= 0xFF
	os.WriteFile(name, data, 0o644)

	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted mid-file corruption")
	}
}

// checkpoint persists a recovery point the way Close and compaction do,
// without closing: the active segment and the statistics are fsynced.
func checkpoint(s *SegmentStore) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func TestSegmentCheckpointFoldsPostCheckpointRecords(t *testing.T) {
	// Statistics recovery must be exact when records straddle a
	// checkpoint: checkpointed stats cover seq <= AppendSeq, replay folds
	// the rest.
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 30)
	if err := checkpoint(s); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	fill(t, s, 17) // post-checkpoint, only synced
	s.Sync()
	want := s.StatsAll()
	wantTotal := s.TotalFired()

	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if got := r.TotalFired(); got != wantTotal {
		t.Fatalf("TotalFired = %d, want %d", got, wantTotal)
	}
	if got := r.StatsAll(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StatsAll = %+v, want %+v", got, want)
	}
}

func TestSegmentCompactionSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 120)
	n, err := s.Compact(0, 5)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if n == 0 {
		t.Fatal("Compact evicted nothing")
	}
	mirror := mirrorOf(s)
	s.Close()

	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer r.Close()
	assertSame(t, r, mirror)
	// Compaction rewrote the files: stats must still cover evicted
	// records (they are inside the checkpoint, not the segments).
	if got := r.TotalFired(); got != 120 {
		t.Fatalf("TotalFired = %d, want 120", got)
	}
}

func TestSegmentCompactionCrashBeforeCheckpoint(t *testing.T) {
	// Orphan .tmp survivors with no checkpoint referencing them are
	// discarded: the old segments are still authoritative.
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 20)
	s.Sync()
	mirror := mirrorOf(s)
	// Fake the first half of a compaction crash: survivors written to
	// .tmp, no checkpoint update, then "crash".
	os.WriteFile(filepath.Join(dir, segName(7)+".tmp"), []byte("partial"), 0o644)

	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	assertSame(t, r, mirror)
	if _, err := os.Stat(filepath.Join(dir, segName(7)+".tmp")); !os.IsNotExist(err) {
		t.Fatal("orphan .tmp survivor not discarded")
	}
}

func TestSegmentCompactionCrashAfterCheckpoint(t *testing.T) {
	// A checkpoint naming survivors commits the compaction even if the
	// renames and deletes never ran: recovery promotes the .tmp files and
	// drops manifest-absent old segments.
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 120)
	if _, err := s.Compact(0, 5); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	mirror := mirrorOf(s)
	s.Close()

	// Reconstruct the crash window: demote every live segment back to
	// .tmp (as if renames never happened) and resurrect a stale
	// pre-compaction segment the delete never reached.
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		if num, ok := segNum(ent.Name()); ok {
			if num == 1 {
				continue
			}
			old := filepath.Join(dir, ent.Name())
			os.Rename(old, old+".tmp")
		}
	}
	os.WriteFile(filepath.Join(dir, segName(1)), []byte("stale pre-compaction segment"), 0o644)

	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen mid-compaction-crash: %v", err)
	}
	defer r.Close()
	assertSame(t, r, mirror)
	// The stale segment is gone and no .tmp files remain.
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatal("stale pre-compaction segment survived recovery")
	}
	ents, _ = os.ReadDir(dir)
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", ent.Name())
		}
	}
}

func TestSegmentOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open accepted empty Dir")
	}
}

func TestSegmentRollKeepsByteBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 500)
	s.Sync()
	info := s.Info()
	if info.Segments < 3 {
		t.Fatalf("expected several segments, got %+v", info)
	}
	// Sealed segments respect the roll threshold (one record of
	// overshoot allowed).
	for _, m := range s.finalized {
		if m.bytes > (1<<10)+512 {
			t.Fatalf("segment %d overshoots roll threshold: %d bytes", m.num, m.bytes)
		}
	}
}
