package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"omg/internal/assertion"
)

// The write-side format test. testdata/write-v1 holds the files an earlier
// commit's SegmentStore left after writeV1Script (see testdata/README.md);
// it is never regenerated. Today's store must write the same bytes.

// writeV1Violation is the script's i-th violation: every field varies,
// including a name JSON must escape, an empty and a non-ASCII stream and
// negative sample indexes, and every ingest stamp is fixed.
func writeV1Violation(i int) assertion.Violation {
	v := assertion.Violation{
		Assertion:   []string{"lights", "vehicle:flicker", `multi<box>&"q"`}[i%3],
		Stream:      []string{"cam-0", "", "kamera-ü", "cam-1"}[i%4],
		SampleIndex: i*7 - 40,
		Time:        float64(i) * 0.25,
		Severity:    float64(i%5) + 0.5,
		IngestUnix:  1700000000 + int64(i/10),
	}
	if i%3 == 1 {
		v.ObservedUnixNano = 1700000000_000000000 + int64(i)*1_000_003
	}
	return v
}

// writeV1Script is the fixture's script over an empty dir, 2 KiB
// segments: 40 appends (rolling), Compact(0, 6), 30 more appends (rolling
// again), Checkpoint, 7 more appends, Sync. It returns the store open, as
// a SIGKILL would find it.
func writeV1Script(dir string) (*SegmentStore, error) {
	s, err := Open(Config{Dir: dir, SegmentBytes: 2 << 10})
	if err != nil {
		return nil, err
	}
	i := 0
	appendN := func(n int) error {
		for end := i + n; i < end; i++ {
			if err := s.Append(writeV1Violation(i)); err != nil {
				return err
			}
		}
		return nil
	}
	steps := []func() error{
		func() error { return appendN(40) },
		func() error { _, err := s.Compact(0, 6); return err },
		func() error { return appendN(30) },
		func() error { return checkpoint(s) },
		func() error { return appendN(7) },
		s.Sync,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// TestFormatFixtureWriteV1 runs writeV1Script and requires exactly the
// fixture's files, byte for byte: every segment and checkpoint.json.
func TestFormatFixtureWriteV1(t *testing.T) {
	dir := t.TempDir()
	s, err := writeV1Script(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := filepath.Join("testdata", "write-v1")
	names := func(dir string) []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, ent := range ents {
			out = append(out, ent.Name())
		}
		return out
	}
	if got, exp := names(dir), names(want); !slices.Equal(got, exp) {
		t.Fatalf("the script left %v, the fixture holds %v", got, exp)
	}
	for _, name := range names(want) {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		exp, err := os.ReadFile(filepath.Join(want, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp) {
			t.Errorf("%s: wrote %d bytes that differ from the fixture's %d", name, len(got), len(exp))
		}
	}
}
