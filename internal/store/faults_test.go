package store

import (
	"errors"
	"syscall"
	"testing"
)

// The injected disk-full fault trips deterministically once the byte
// budget is spent, latches (every later flush fails too), and leaves the
// store recoverable: a healed reopen sees exactly what was flushed
// before the fault.
func TestSegmentInjectedDiskFull(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, FailWritesAfterBytes: 400})
	if err != nil {
		t.Fatal(err)
	}

	flushed := 0
	var faultErr error
	for i := 1; i <= 100; i++ {
		if err := s.Append(mkv("a", "cam0", i, 1, int64(1000+i))); err != nil {
			t.Fatalf("Append(%d) = %v", i, err)
		}
		if err := s.Sync(); err != nil {
			faultErr = err
			break
		}
		flushed++
	}
	if faultErr == nil {
		t.Fatal("100 records never hit the 400-byte fault")
	}
	if flushed == 0 {
		t.Fatal("fault fired before anything was flushed; budget too small for the test's premise")
	}
	if !errors.Is(faultErr, ErrDiskFull) {
		t.Fatalf("Sync err = %v, want ErrDiskFull", faultErr)
	}
	if !errors.Is(faultErr, syscall.ENOSPC) {
		t.Fatalf("Sync err = %v, want to unwrap to ENOSPC", faultErr)
	}

	// The fault latches: appends still buffer, but no flush succeeds.
	if err := s.Append(mkv("a", "cam0", 101, 1, 1101)); err != nil {
		t.Fatalf("Append after fault = %v (appends only buffer; they must not fail)", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("second Sync = %v, want ErrDiskFull again", err)
	}
	// The memory mirror still answers queries with everything appended:
	// the flushed records, the one whose flush failed, and the post-fault
	// append.
	if got := s.TotalFired(); got != flushed+2 {
		t.Fatalf("TotalFired = %d, want %d (mirror keeps serving)", got, flushed+2)
	}
	s.Close() // flush fails inside; the on-disk bytes are what matters

	// A healed (fault-free) reopen recovers exactly the flushed records —
	// the pending buffer the fault stranded is the loss, nothing more.
	h, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := h.TotalFired(); got != flushed {
		t.Fatalf("healed TotalFired = %d, want %d flushed pre-fault", got, flushed)
	}
	vs := h.Query(Query{})
	if len(vs) != flushed {
		t.Fatalf("healed Violations = %d, want %d", len(vs), flushed)
	}
	for i, v := range vs {
		if v.SampleIndex != i+1 {
			t.Fatalf("healed record %d has SampleIndex %d, want %d", i, v.SampleIndex, i+1)
		}
	}
	// And the healed store writes again.
	if err := h.Append(mkv("a", "cam0", 200, 1, 1200)); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatalf("healed Sync = %v", err)
	}
}
