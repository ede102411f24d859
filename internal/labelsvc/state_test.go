package labelsvc

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/store"
)

// oldLabels is a restored state whose snapshot outweighs the log of every
// scripted run below, so none of them snapshots mid-run: n labels on a
// stream the pool does not hold.
func oldLabels(n int) State {
	st := State{Version: StateVersion}
	for i := 0; i < n; i++ {
		st.Labeled = append(st.Labeled, LabeledSample{
			SampleKey: SampleKey{Source: "edge-old", Stream: "old", Sample: i}, Label: "x", Round: 1,
		})
	}
	return st
}

// crashScript is the crash-point run: bind, Next, feedback, expiry,
// feedback, Next. Expiry writes nothing itself; the leases it drops ride
// on the next record, and the last pull takes the whole pool, leasing
// most of those samples again. writes says which steps append a record.
var crashScript = []struct {
	name   string
	later  bool // run at crashLater, after every lease of the first Next lapsed
	writes bool
	do     func(s *Service)
}{
	{"bind", false, true, func(s *Service) {
		s.ObserveBatch("edge-a", []assertion.Violation{v("lights", "cam-0", 0, 1), v("lights", "cam-1", 1, 1)})
	}},
	{"next", false, true, func(s *Service) { s.Next(6, "a") }},
	{"feedback", false, true, func(s *Service) {
		var fb []Feedback
		for _, l := range s.StateSnapshot().Leases[:3] {
			fb = append(fb, Feedback{SampleKey: l.SampleKey, Label: "car", ModelCorrect: l.Sample%2 == 0})
		}
		s.ApplyFeedback(fb)
	}},
	{"expiry", true, false, func(s *Service) { s.Stats() }},
	{"feedback", true, true, func(s *Service) {
		s.ApplyFeedback([]Feedback{{SampleKey: s.Pool()[0].SampleKey, Label: "bus"}})
	}},
	{"next", true, true, func(s *Service) { s.Next(256, "b") }},
}

const crashTTL = time.Minute

var (
	crashStart = time.Unix(1700000000, 0)
	crashLater = crashStart.Add(2 * crashTTL)
)

// crashService builds a service over a fresh copy of the crash script's
// pool of 14 candidates, its clock read through *now.
func crashService(t *testing.T, statePath string, now *time.Time) *Service {
	t.Helper()
	return mustNew(t, seedSource(16), Config{
		StatePath: statePath, LeaseTTL: crashTTL, Now: func() time.Time { return *now },
	})
}

// crashAnswers is what a service says at crashLater: its state before any
// call expires a lease, then its Stats and its next pull.
type crashAnswers struct {
	state       State
	stats, next string
}

func answer(t *testing.T, s *Service) crashAnswers {
	t.Helper()
	a := crashAnswers{state: s.StateSnapshot()}
	stats, _ := json.Marshal(s.Stats())
	b, err := s.Next(4, "z")
	if err != nil {
		t.Fatal(err)
	}
	next, _ := json.Marshal(b)
	a.stats, a.next = string(stats), string(next)
	return a
}

// TestStateLogTruncatedAtEveryOffset cuts the log of a scripted run at
// every byte offset — every point a crash can stop an append at — and
// revives each cut. Each revival must be the reference run's state after
// the last whole record: the same State, the same Stats and the same next
// pull as a service that ran exactly those mutations and never crashed.
func TestStateLogTruncatedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "labels.json")
	now := crashStart
	run := crashService(t, statePath, &now)
	run.RestoreState(oldLabels(60))
	ends := []int64{0} // the log's length after each record
	for _, st := range crashScript {
		if st.later {
			now = crashLater
		}
		st.do(run)
		fi, err := os.Stat(logPath(statePath))
		if err != nil {
			t.Fatal(err)
		}
		if grew := fi.Size() != ends[len(ends)-1]; grew != st.writes {
			t.Fatalf("step %s: log grew %v, want %v", st.name, grew, st.writes)
		}
		if st.writes {
			ends = append(ends, fi.Size())
		}
	}
	if got := run.IndexStats(); got.StateSnapshots != 1 || got.StateDeltas != 5 {
		t.Fatalf("scripted run wrote %d snapshots and %d deltas, want the restore's 1 and 5", got.StateSnapshots, got.StateDeltas)
	}
	snap, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	logData, err := os.ReadFile(logPath(statePath))
	if err != nil {
		t.Fatal(err)
	}

	// want[i] is the reference after the script's first i records: an
	// in-memory twin that ran those steps, asked at crashLater.
	want := make([]crashAnswers, len(ends))
	for i := range want {
		twinNow := crashStart
		twin := crashService(t, "", &twinNow)
		twin.RestoreState(oldLabels(60))
		records := 0
		for _, st := range crashScript {
			if records == i {
				break
			}
			if st.later {
				twinNow = crashLater
			}
			st.do(twin)
			if st.writes {
				records++
			}
		}
		twinNow = crashLater
		want[i] = answer(t, twin)
	}

	revDir := t.TempDir()
	revPath := filepath.Join(revDir, "labels.json")
	for off := int64(0); off <= int64(len(logData)); off++ {
		whole := 0
		for whole+1 < len(ends) && ends[whole+1] <= off {
			whole++
		}
		if err := os.WriteFile(revPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath(revPath), logData[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		revNow := crashLater
		revived := crashService(t, revPath, &revNow)
		if fi, err := os.Stat(logPath(revPath)); err != nil || fi.Size() != ends[whole] {
			t.Fatalf("cut at %d: log after open %v %v, want its torn tail truncated to %d", off, fi.Size(), err, ends[whole])
		}
		got := answer(t, revived)
		if !reflect.DeepEqual(got.state, want[whole].state) {
			t.Fatalf("cut at %d (%d whole records): state\n%+v\nwant\n%+v", off, whole, got.state, want[whole].state)
		}
		if got.stats != want[whole].stats || got.next != want[whole].next {
			t.Fatalf("cut at %d (%d whole records): stats/next\n%s\n%s\nwant\n%s\n%s", off, whole, got.stats, got.next, want[whole].stats, want[whole].next)
		}
		revived.files.close() // the next cut rewrites both files anyway
	}
}

// TestSnapshotCoversLogNotYetTruncated builds the directory a crash
// between a snapshot's rename and the log's truncation leaves: the new
// snapshot beside the log it replaced. The records are older than the
// snapshot, so revival must skip them — replayed, they would bring back
// the leases the snapshot has already expired.
func TestSnapshotCoversLogNotYetTruncated(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "labels.json")
	now := crashStart
	s := crashService(t, statePath, &now)
	s.RestoreState(oldLabels(60))
	b, err := s.Next(6, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyFeedback([]Feedback{{SampleKey: b.Candidates[0].SampleKey, Label: "car"}}); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(logPath(statePath))
	if err != nil || len(stale) == 0 {
		t.Fatalf("log before the snapshot: %d bytes, %v", len(stale), err)
	}
	now = crashLater
	s.Stats() // the five remaining leases lapse
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := s.StateSnapshot()
	if len(want.Leases) != 0 {
		t.Fatalf("snapshot kept %d lapsed leases", len(want.Leases))
	}
	if err := os.WriteFile(logPath(statePath), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	revived := crashService(t, statePath, &now)
	if got := revived.StateSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("revived over the stale log:\n%+v\nwant the snapshot's\n%+v", got, want)
	}
}

// TestLapsedLeasesLeasedAgainInOneRecord: a pull made after every lease
// lapsed drops those leases and leases the same samples again, both in its
// one record; the revival holds the new leases.
func TestLapsedLeasesLeasedAgainInOneRecord(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "labels.json")
	now := crashStart
	s := crashService(t, statePath, &now)
	s.RestoreState(oldLabels(60))
	if _, err := s.Next(256, "a"); err != nil {
		t.Fatal(err)
	}
	now = crashLater
	if _, err := s.Next(256, "b"); err != nil {
		t.Fatal(err)
	}
	if got := s.IndexStats(); got.StateSnapshots != 1 || got.StateDeltas != 2 {
		t.Fatalf("%d snapshots and %d deltas, want the restore's 1 and the pulls' 2", got.StateSnapshots, got.StateDeltas)
	}
	want := s.StateSnapshot()
	revived := crashService(t, statePath, &now)
	if got := revived.StateSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("revived state:\n%+v\nwant\n%+v", got, want)
	}
}

// TestStateLogDamageRefusesOpen: a flipped byte in a record with more log
// after it is not a torn tail, and the open names the file and offset. The
// same flip in the last record is indistinguishable from a torn append
// and is cut off like one.
func TestStateLogDamageRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "labels.json")
	now := crashStart
	s := crashService(t, statePath, &now)
	s.RestoreState(oldLabels(60))
	if _, err := s.Next(6, "a"); err != nil {
		t.Fatal(err)
	}
	first := s.StateSnapshot()
	if _, err := s.Next(6, "b"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath(statePath))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := store.FrameAt(data, 0)
	if !ok || store.FrameHeader+len(body) >= len(data) {
		t.Fatalf("want two records in the log, have %d bytes", len(data))
	}
	second := store.FrameHeader + len(body)

	flipped := append([]byte(nil), data...)
	flipped[store.FrameHeader+len(body)/2] ^= 0x20
	if err := os.WriteFile(logPath(statePath), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(seedSource(16), Config{StatePath: statePath, LeaseTTL: crashTTL, Now: func() time.Time { return now }})
	if err == nil || !strings.Contains(err.Error(), logPath(statePath)) || !strings.Contains(err.Error(), "offset 0") {
		t.Fatalf("open over a damaged first record: %v, want a refusal naming the log and offset 0", err)
	}

	flipped = append([]byte(nil), data...)
	flipped[second+store.FrameHeader+2] ^= 0x20
	if err := os.WriteFile(logPath(statePath), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	revived := crashService(t, statePath, &now)
	if got := revived.StateSnapshot(); !reflect.DeepEqual(got, first) {
		t.Fatalf("revived over a damaged last record:\n%+v\nwant the first record's\n%+v", got, first)
	}
}

// TestFailedAppendIsCutBack: a pull whose record could not be made
// durable is taken back, and so is its record, off the log file it went
// to: an open that finds that file again does not replay the round its
// caller was told had failed.
func TestFailedAppendIsCutBack(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "labels.json")
	now := crashStart
	s := crashService(t, statePath, &now)
	s.RestoreState(oldLabels(60))
	if _, err := s.Next(6, "a"); err != nil {
		t.Fatal(err)
	}
	want := s.StateSnapshot()
	moved := filepath.Join(dir, "moved.log")
	if err := os.Rename(logPath(statePath), moved); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(6, "b"); err == nil {
		t.Fatal("pull acknowledged with its log moved away")
	}
	if err := os.Rename(moved, logPath(statePath)); err != nil {
		t.Fatal(err)
	}
	revived := crashService(t, statePath, &now)
	if got := revived.StateSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("revived state:\n%+v\nwant the one before the failed pull:\n%+v", got, want)
	}
}

// TestStaleSnapshotTempSwept: a crash between a snapshot's temp file and
// its rename leaves the temp file; the next open removes it and never
// reads it as state.
func TestStaleSnapshotTempSwept(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, ".labels-1.tmp")
	raw, _ := json.Marshal(State{Version: StateVersion, Round: 99, Served: 7})
	if err := os.WriteFile(stray, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, seedSource(10), Config{StatePath: filepath.Join(dir, "labels.json")})
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray snapshot temp file still there: %v", err)
	}
	if got := s.Stats(); got.Round != 0 || got.Served != 0 {
		t.Fatalf("stats = %+v, want a fresh loop", got)
	}
}

// TestLabelRoundWritesTwoDeltas: once a snapshot exists, a pull and its
// feedback each append one record and write no snapshot.
func TestLabelRoundWritesTwoDeltas(t *testing.T) {
	s := mustNew(t, seedSource(40), Config{StatePath: filepath.Join(t.TempDir(), "labels.json")})
	s.RestoreState(oldLabels(60))
	before := s.IndexStats()
	if before.StateSnapshots != 1 || before.StateDeltas != 0 {
		t.Fatalf("after restore: %+v, want one snapshot", before)
	}
	b, err := s.Next(4, "p")
	if err != nil {
		t.Fatal(err)
	}
	var fb []Feedback
	for _, c := range b.Candidates {
		fb = append(fb, Feedback{SampleKey: c.SampleKey, Label: "x"})
	}
	if _, err := s.ApplyFeedback(fb); err != nil {
		t.Fatal(err)
	}
	after := s.IndexStats()
	if d, n := after.StateDeltas-before.StateDeltas, after.StateSnapshots-before.StateSnapshots; d != 2 || n != 0 {
		t.Fatalf("a pull and its feedback wrote %d deltas and %d snapshots, want 2 and 0", d, n)
	}
}
