package export

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"omg/internal/assertion"
)

func TestBatchEncodeDecodeRoundTrip(t *testing.T) {
	in := Batch{
		Version: WireVersion,
		Source:  "edge-01",
		Seq:     7,
		Violations: []assertion.Violation{
			{Assertion: "a", Stream: "cam-0", SampleIndex: 3, Time: 0.1, Severity: 2},
			{Assertion: "b", SampleIndex: 4, Severity: 1},
		},
	}
	data, err := jsonCodec{}.AppendBatch(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := jsonCodec{}.DecodeBatch(data)
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
	_, err := jsonCodec{}.DecodeBatch([]byte(`{"version":99,"violations":[]}`))
	if !errors.Is(err, ErrWireVersion) {
		t.Fatalf("version 99 should fail with ErrWireVersion, got %v", err)
	}
	if _, err := (jsonCodec{}).DecodeBatch([]byte(`{"version":0,"violations":[]}`)); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("version 0 should fail with ErrWireVersion, got %v", err)
	}
	if _, err := (jsonCodec{}).DecodeBatch([]byte(`not json`)); err == nil {
		t.Fatal("malformed JSON must be an error")
	}
}

func TestDecodeBatchAcceptsOlderVersions(t *testing.T) {
	// Version-1 senders stay valid across the version-2 bump: the batch
	// shape did not change.
	b, err := jsonCodec{}.DecodeBatch([]byte(`{"version":1,"source":"edge","seq":3,"violations":[{"assertion":"a"}]}`))
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
		Version:  WireVersion,
		Recorder: snapshotOf(st),
		LastSeq:  map[string]uint64{"edge-01": 12, "edge-02": 4},
		Batches:  16,
	}
	path := filepath.Join(t.TempDir(), "state.json")
	writeSnapshotFile(t, path, in)
	out, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != WireVersion {
		t.Fatalf("version mangled: %+v", out)
	}
	if !reflect.DeepEqual(out.LastSeq, in.LastSeq) || out.Batches != in.Batches {
		t.Fatalf("round trip mangled the snapshot: %+v", out)
	}
	if got := out.Recorder.Stats["a"].Fired; got != 1 {
		t.Fatalf("recorder snapshot fired %d, want 1", got)
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
