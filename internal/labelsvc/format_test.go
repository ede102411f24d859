package labelsvc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"omg/internal/assertion"
)

// The label-state format test. testdata/ was written once by an earlier
// commit (see testdata/README.md) and is never regenerated: it pins that
// this code revives that commit's labels.json and answers what it did.

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// requireFixtureJSON compares v, indented as the fixture writer indented
// it, with the checked-in file byte for byte.
func requireFixtureJSON(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want := readFixture(t, name); !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("%s:\n got %s\nwant %s", name, got, want)
	}
}

// TestFormatFixtureLabelsV1 revives a StateVersion-1 labels.json — two
// rounds served, five labels posted, eleven leases live, three streams
// bound to two sources — over the violation history it was written
// against, one minute after it was written. Its Stats and its next
// Next(16, …) must be the ones its writer's own revival answered.
func TestFormatFixtureLabelsV1(t *testing.T) {
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
	requireFixtureJSON(t, "labels-v1.stats.json", svc.Stats())
	b, err := svc.Next(16, "puller-c")
	if err != nil {
		t.Fatal(err)
	}
	requireFixtureJSON(t, "labels-v1.next.json", b)
}

// TestFormatFixtureLabelsLogV1 revives a snapshot and the delta log beside
// it — two whole records, then half of a third that a crash tore — over
// the same violation history. The torn record is cut off the log, and the
// revived state, its Stats and its next Next(16, …) must be the ones its
// writer's own revival answered.
func TestFormatFixtureLabelsLogV1(t *testing.T) {
	var vs []assertion.Violation
	if err := json.Unmarshal(readFixture(t, "labels-v1.source.json"), &vs); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(t.TempDir(), "labels.json")
	if err := os.WriteFile(state, readFixture(t, "labels-log-v1.json"), 0o644); err != nil {
		t.Fatal(err)
	}
	torn := readFixture(t, "labels-log-v1.log")
	if err := os.WriteFile(logPath(state), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000120, 0)
	svc := mustNew(t, &fakeSource{vs: vs}, Config{StatePath: state, Now: func() time.Time { return now }})
	defer svc.Close()
	if fi, err := os.Stat(logPath(state)); err != nil || fi.Size() != 1116 {
		t.Fatalf("log after open: %v, want the torn record cut off at 1116 of %d bytes", err, len(torn))
	}
	requireFixtureJSON(t, "labels-log-v1.state.json", svc.StateSnapshot())
	requireFixtureJSON(t, "labels-log-v1.stats.json", svc.Stats())
	b, err := svc.Next(16, "puller-f")
	if err != nil {
		t.Fatal(err)
	}
	requireFixtureJSON(t, "labels-log-v1.next.json", b)
}
