package assertion

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// syncCountWriter is an in-memory writer exposing the Sync hook file
// sinks look for, counting how often it is called.
type syncCountWriter struct {
	lineCountWriter
	syncs   atomic.Int64
	syncErr error
}

func (w *syncCountWriter) Sync() error {
	w.syncs.Add(1)
	return w.syncErr
}

func TestJSONLSinkSyncOnClose(t *testing.T) {
	w := &syncCountWriter{}
	s := NewJSONLSinkConfig(w, JSONLConfig{SyncOnClose: true})
	if err := s.Record(Violation{Assertion: "a", Severity: 1}); err != nil {
		t.Fatal(err)
	}
	if got := w.syncs.Load(); got != 0 {
		t.Fatalf("Sync called %d times before Close", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.syncs.Load(); got != 1 {
		t.Fatalf("Sync called %d times on Close, want 1", got)
	}
	// Close is idempotent: a second Close must not sync again.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.syncs.Load(); got != 1 {
		t.Fatalf("second Close synced again (%d calls)", got)
	}
}

func TestJSONLSinkSyncOffByDefault(t *testing.T) {
	w := &syncCountWriter{}
	s := NewJSONLSink(w, 0)
	s.Record(Violation{Assertion: "a"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.syncs.Load(); got != 0 {
		t.Fatalf("default sink synced %d times, want 0", got)
	}
}

func TestJSONLSinkSyncErrorRetained(t *testing.T) {
	w := &syncCountWriter{syncErr: errors.New("disk full")}
	s := NewJSONLSinkConfig(w, JSONLConfig{SyncOnClose: true})
	s.Record(Violation{Assertion: "a"})
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close = %v, want the sync error", err)
	}
	if err := s.Err(); err == nil {
		t.Fatal("sync error not retained by Err")
	}
}

// TestRotatingSinkSyncsAtBoundaries proves the default rotation policy
// fsyncs the outgoing file at every rotation boundary and the active one
// on Close.
func TestRotatingSinkSyncsAtBoundaries(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "v.jsonl")
		s, err := NewRotatingFileSinkConfig(path, RotateConfig{MaxBytes: 128, Keep: 3})
		if err != nil {
			t.Fatal(err)
		}
		var syncs atomic.Int64
		s.rw.syncFn = func(f *os.File) error {
			syncs.Add(1)
			return f.Sync()
		}
		// Each line is ~60 bytes, so 8 violations cross the 128-byte bound
		// several times.
		for i := 0; i < 8; i++ {
			if err := s.Record(Violation{Assertion: "rotate-me", Stream: "cam", SampleIndex: i, Severity: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		rotated := syncs.Load()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		total := syncs.Load()
		if rotated == 0 {
			t.Fatal("no sync at any rotation boundary")
		}
		if total != rotated+1 {
			t.Fatalf("Close added %d syncs, want exactly 1 (total %d, rotated %d)", total-rotated, total, rotated)
		}
		if _, err := os.Stat(path + ".1"); err != nil {
			t.Fatalf("rotation did not happen: %v", err)
		}
	})
}

// TestRotatingSinkSyncFailureAbortsRotation: a failed fsync must surface
// (and latch the sink dead) instead of rotating un-durable data away.
func TestRotatingSinkSyncFailureAbortsRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.jsonl")
	s, err := NewRotatingFileSinkConfig(path, RotateConfig{MaxBytes: 64, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("simulated fsync failure")
	s.rw.syncFn = func(*os.File) error { return boom }
	for i := 0; i < 4; i++ {
		s.Record(Violation{Assertion: "rotate-me", SampleIndex: i, Severity: 1})
	}
	s.Flush()
	if err := s.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want the fsync failure", err)
	}
	s.rw.syncFn = nil // let Close succeed at the filesystem level
	s.Close()
	if _, err := os.Stat(path + ".1"); err == nil {
		t.Fatal("rotation completed despite the failed fsync")
	}
}
