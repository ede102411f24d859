package export

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"omg/internal/assertion"
)

func TestBatchEncodeDecodeRoundTrip(t *testing.T) {
	in := Batch{
		Source: "edge-01",
		Seq:    7,
		Violations: []assertion.Violation{
			{Assertion: "a", Stream: "cam-0", SampleIndex: 3, Time: 0.1, Severity: 2},
			{Assertion: "b", SampleIndex: 4, Severity: 1},
		},
	}
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != WireVersion {
		t.Fatalf("decoded version %d, want %d", out.Version, WireVersion)
	}
	if out.Source != in.Source || out.Seq != in.Seq || !reflect.DeepEqual(out.Violations, in.Violations) {
		t.Fatalf("round trip mangled the batch: %+v", out)
	}
}

func TestDecodeBatchRejectsWrongVersion(t *testing.T) {
	_, err := DecodeBatch(strings.NewReader(`{"version":99,"violations":[]}`))
	if !errors.Is(err, ErrWireVersion) {
		t.Fatalf("version 99 should fail with ErrWireVersion, got %v", err)
	}
	if _, err := DecodeBatch(strings.NewReader(`{"version":0,"violations":[]}`)); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("version 0 should fail with ErrWireVersion, got %v", err)
	}
	if _, err := DecodeBatch(strings.NewReader(`not json`)); err == nil {
		t.Fatal("malformed JSON must be an error")
	}
}

func TestDecodeBatchAcceptsOlderVersions(t *testing.T) {
	// Version-1 senders stay valid across the version-2 bump: the batch
	// shape did not change.
	b, err := DecodeBatch(strings.NewReader(`{"version":1,"source":"edge","seq":3,"violations":[{"assertion":"a"}]}`))
	if err != nil {
		t.Fatalf("version 1 batch must decode: %v", err)
	}
	if b.Version != 1 || b.Source != "edge" || len(b.Violations) != 1 {
		t.Fatalf("version 1 batch mangled: %+v", b)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	st := assertion.NewMemStore(0)
	st.Append(assertion.Violation{Assertion: "a", SampleIndex: 1, Severity: 3})
	in := Snapshot{
		Recorder: st.Export(),
		LastSeq:  map[string]uint64{"edge-01": 12, "edge-02": 4},
		Batches:  16,
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := WriteSnapshotFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != WireVersion || out.SavedAtUnix == 0 {
		t.Fatalf("snapshot must be stamped with version and save time: %+v", out)
	}
	if !reflect.DeepEqual(out.LastSeq, in.LastSeq) || out.Batches != in.Batches {
		t.Fatalf("round trip mangled the snapshot: %+v", out)
	}
	if got := out.Recorder.TotalFired(); got != 1 {
		t.Fatalf("recorder snapshot TotalFired = %d, want 1", got)
	}
	// No temp files left beside the snapshot.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("atomic write left debris: %v", entries)
	}
}

func TestWriteSnapshotFileEncodeErrorLeavesNoDebris(t *testing.T) {
	// NaN cannot be encoded as JSON, so the write must fail — and the
	// temp file must never survive the failure, even though the encoder
	// had already streamed bytes into it.
	bad := Snapshot{
		Recorder: assertion.RecorderSnapshot{
			Stats: map[string]assertion.Stats{"a": {Fired: 1, TotalSev: math.NaN()}},
		},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteSnapshotFile(path, bad); err == nil {
		t.Fatal("encoding NaN must fail")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("encode failure left files behind: %v", names)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("snapshot path exists after a failed write")
	}
}

func TestWriteSnapshotFileOverwriteSurvivesEncodeError(t *testing.T) {
	// A failed write must not clobber the previous good snapshot.
	path := filepath.Join(t.TempDir(), "state.json")
	good := Snapshot{LastSeq: map[string]uint64{"s": 3}}
	if err := WriteSnapshotFile(path, good); err != nil {
		t.Fatal(err)
	}
	bad := Snapshot{
		Recorder: assertion.RecorderSnapshot{
			Stats: map[string]assertion.Stats{"a": {Fired: 1, MaxSev: math.Inf(1)}},
		},
	}
	if err := WriteSnapshotFile(path, bad); err == nil {
		t.Fatal("encoding +Inf must fail")
	}
	out, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("previous snapshot damaged: %v", err)
	}
	if out.LastSeq["s"] != 3 {
		t.Fatalf("previous snapshot content lost: %+v", out)
	}
}

func TestReadSnapshotFileRejectsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte(`{"version":99,"recorder":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("want ErrWireVersion, got %v", err)
	}
}

func TestReadSnapshotFileAcceptsOlderVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"recorder":{},"last_seq":{"e":5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("version 1 snapshot must read: %v", err)
	}
	if s.LastSeq["e"] != 5 || s.Labels != nil {
		t.Fatalf("version 1 snapshot mangled: %+v", s)
	}
}
