package assertion

import (
	"sync/atomic"
	"testing"
)

// syncCountWriter is an in-memory writer exposing the Sync method an
// *os.File has, counting how often it is called.
type syncCountWriter struct {
	lineCountWriter
	syncs atomic.Int64
}

func (w *syncCountWriter) Sync() error {
	w.syncs.Add(1)
	return nil
}

// TestJSONLSinkSyncOffByDefault: a JSONLSink never fsyncs its writer,
// not even on Close. Durability is the collector's data directory's.
func TestJSONLSinkSyncOffByDefault(t *testing.T) {
	w := &syncCountWriter{}
	s := NewJSONLSink(w)
	s.Record(Violation{Assertion: "a"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.syncs.Load(); got != 0 {
		t.Fatalf("default sink synced %d times, want 0", got)
	}
}
