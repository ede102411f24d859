package export

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"omg/internal/assertion"
)

// TestHTTPSinkAccountingContract locks the DropCounter arithmetic the
// sink documents: once Flush returns, Stats().Delivered + Dropped() equals
// exactly the violations Record accepted, and Dropped() is the sum of the
// per-reason counts — through a healthy collector, through a total
// outage, and through the recovery after it. Nothing is double-counted
// and nothing vanishes into neither bucket.
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
		st := s.Stats()
		d := st.Drops
		if sum := d.Deadline + d.CircuitOpen + d.Rejected + d.NonFinite; sum != st.Dropped || st.Delivered+sum != int64(accepted) {
			t.Fatalf("%s: Delivered(%d) + Σ reasons %+v = %d, Dropped %d, want %d accepted",
				phase, st.Delivered, d, st.Delivered+sum, st.Dropped, accepted)
		}
	}

	// Phase 1: healthy — everything delivers, nothing drops.
	record(50)
	checkBalance("healthy")
	if s.Dropped() != 0 {
		t.Fatalf("healthy phase dropped %d", s.Dropped())
	}
	delivered := s.Stats().Delivered

	// Phase 2: outage — batches run out their deadline, then the circuit
	// opens and drops the rest unsent; the balance still holds.
	down.Store(true)
	record(40)
	checkBalance("outage")
	if s.Dropped() == 0 {
		t.Fatal("outage phase dropped nothing")
	}

	if st := s.Stats(); !st.CircuitOpen || st.Drops.Deadline == 0 || st.Drops.CircuitOpen == 0 {
		t.Fatalf("outage: %+v, want deadline drops and then an open circuit's", st)
	}

	// Phase 3: recovery — once a Deadline has passed, the next batch is
	// the probe; it succeeds and new violations deliver again (no
	// dead-latch), and the ledger still balances.
	down.Store(false)
	time.Sleep(fastDeadline)
	record(30)
	checkBalance("recovery")
	if s.Stats().Delivered <= delivered {
		t.Fatalf("no deliveries after recovery: %d then %d", delivered, s.Stats().Delivered)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close must surface the outage's delivery error")
	}
	// Close drains whatever was left; the final ledger must balance too.
	if got := s.Stats().Delivered + s.Dropped(); got != int64(accepted) {
		t.Fatalf("after Close: Delivered(%d) + Dropped(%d) = %d, want %d",
			s.Stats().Delivered, s.Dropped(), got, accepted)
	}
	// The collector saw exactly the delivered violations, once each.
	if got := c.TotalFired(); int64(got) != s.Stats().Delivered {
		t.Fatalf("collector ingested %d, sink delivered %d", got, s.Stats().Delivered)
	}
}

// TestHTTPSinkNonFiniteCostsOneViolation: neither wire can carry a NaN
// severity, so the sink drops that violation — counted — and ships the
// rest of its batch, rather than the whole batch around it.
func TestHTTPSinkNonFiniteCostsOneViolation(t *testing.T) {
	for _, wire := range []string{CodecJSON, CodecBinary} {
		t.Run(wire, func(t *testing.T) {
			c := openCollector(t, CollectorConfig{})
			defer c.Close()
			inner := c.Handler()
			// Hold every POST until all violations are queued, so the NaN
			// is coalesced into a batch with its neighbours.
			gate := make(chan struct{})
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				select {
				case <-gate:
					inner.ServeHTTP(w, r)
				case <-r.Context().Done(): // a failed test closing the server
				}
			}))
			defer srv.Close()

			cfg := fastCfg(srv.URL)
			cfg.Wire = wire
			s, err := NewHTTPSink(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const n = 200
			for i := 0; i < n; i++ {
				v := assertion.Violation{Assertion: "a", Stream: "cam-0", SampleIndex: i, Severity: 1}
				if i == n/2 {
					v.Severity = math.NaN()
				}
				if err := s.Record(v); err != nil {
					t.Fatalf("Record(%d) = %v", i, err)
				}
			}
			close(gate)
			if err := s.Close(); err == nil {
				t.Fatal("Close must surface the encode error")
			}
			if st := s.Stats(); st.Delivered != n-1 || st.Dropped != 1 || st.Drops.NonFinite != 1 {
				t.Fatalf("Delivered %d Dropped %d (%+v), want %d and 1 non-finite", st.Delivered, st.Dropped, st.Drops, n-1)
			}
			if got := c.TotalFired(); got != n-1 {
				t.Fatalf("collector total_fired = %d, want %d", got, n-1)
			}
		})
	}
}
