package export

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestHTTPSinkAccountingContract locks the DropCounter arithmetic the
// sink documents: once Flush returns, Delivered() + Dropped() equals
// exactly the violations Record accepted — through a healthy collector,
// through a total outage, and through the recovery after it. Nothing is
// double-counted and nothing vanishes into neither bucket.
func TestHTTPSinkAccountingContract(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	inner := c.Handler()
	var down atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "collector down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	cfg := fastCfg(srv.URL)
	cfg.MaxRetries = 1
	cfg.BatchMax = 8
	s, err := NewHTTPSink(cfg)
	if err != nil {
		t.Fatal(err)
	}

	accepted := 0
	record := func(n int) {
		recordN(t, s, n)
		accepted += n
	}
	checkBalance := func(phase string) {
		t.Helper()
		if err := s.Flush(); err != nil && !down.Load() && s.Dropped() == 0 {
			t.Fatalf("%s: Flush: %v", phase, err)
		}
		if got := s.Delivered() + s.Dropped(); got != int64(accepted) {
			t.Fatalf("%s: Delivered(%d) + Dropped(%d) = %d, want %d accepted",
				phase, s.Delivered(), s.Dropped(), got, accepted)
		}
	}

	// Phase 1: healthy — everything delivers, nothing drops.
	record(50)
	checkBalance("healthy")
	if s.Dropped() != 0 {
		t.Fatalf("healthy phase dropped %d", s.Dropped())
	}
	delivered := s.Delivered()

	// Phase 2: outage — every batch exhausts its retries and is counted
	// as dropped; the balance still holds.
	down.Store(true)
	record(40)
	checkBalance("outage")
	if s.Dropped() == 0 {
		t.Fatal("outage phase dropped nothing")
	}

	// Phase 3: recovery — new violations deliver again (no dead-latch)
	// and the ledger still balances; the outage cost only its own batches.
	down.Store(false)
	record(30)
	checkBalance("recovery")
	if s.Delivered() <= delivered {
		t.Fatalf("no deliveries after recovery: %d then %d", delivered, s.Delivered())
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close must surface the outage's delivery error")
	}
	// Close drains whatever was left; the final ledger must balance too.
	if got := s.Delivered() + s.Dropped(); got != int64(accepted) {
		t.Fatalf("after Close: Delivered(%d) + Dropped(%d) = %d, want %d",
			s.Delivered(), s.Dropped(), got, accepted)
	}
	// The collector saw exactly the delivered violations, once each.
	if got := c.TotalFired(); int64(got) != s.Delivered() {
		t.Fatalf("collector ingested %d, sink delivered %d", got, s.Delivered())
	}
}
