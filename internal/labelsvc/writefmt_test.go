package labelsvc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/store"
)

// TestFormatFixtureLabelsLogV1Written runs the script that wrote
// testdata/labels-log-v1.* (see testdata/README.md) and requires the
// same bytes: the snapshot its first persist writes, and the log's two
// whole records plus the half of the third the fixture kept.
func TestFormatFixtureLabelsLogV1Written(t *testing.T) {
	var vs []assertion.Violation
	if err := json.Unmarshal(readFixture(t, "labels-v1.source.json"), &vs); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(t.TempDir(), "labels.json")
	if err := os.WriteFile(state, readFixture(t, "labels-v1.json"), 0o644); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000060, 0)
	svc := mustNew(t, &fakeSource{vs: vs}, Config{StatePath: state, Now: func() time.Time { return now }})
	defer svc.Close()
	b, err := svc.Next(4, "puller-c")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if want := readFixture(t, "labels-log-v1.json"); !bytes.Equal(snap, want) {
		t.Fatalf("snapshot:\n got %s\nwant %s", snap, want)
	}
	var fb []Feedback
	for _, c := range b.Candidates[:3] {
		fb = append(fb, Feedback{SampleKey: c.SampleKey, Label: "fixed", ModelCorrect: c.Sample%2 == 1})
	}
	if _, err := svc.ApplyFeedback(fb); err != nil {
		t.Fatal(err)
	}
	for _, puller := range []string{"puller-d", "puller-e"} {
		if _, err := svc.Next(4, puller); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(logPath(state))
	if err != nil {
		t.Fatal(err)
	}
	// The fixture is two whole records (1 116 bytes) and the first half of
	// a third whose header gives its length: today's log must be exactly
	// those three records.
	want := readFixture(t, "labels-log-v1.log")
	const whole = 1116
	end := whole + store.FrameHeader + int(binary.LittleEndian.Uint32(want[whole:]))
	if len(got) != end || !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("log is %d bytes, want %d extending the fixture's %d:\n got %q\nwant %q", len(got), end, len(want), got[:min(len(got), whole)], want[:whole])
	}
}
