package export

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omg/internal/assertion"
)

// fastDeadline keeps failure-path tests quick: a dead batch costs half a
// second, its backoffs run 2.5ms to 100ms and each attempt times out
// after 250ms.
const fastDeadline = 500 * time.Millisecond

// fastCfg returns a config on fastDeadline.
func fastCfg(url string) HTTPSinkConfig {
	return HTTPSinkConfig{BaseURL: url, Deadline: fastDeadline}
}

func recordN(t *testing.T, s assertion.Sink, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Record(assertion.Violation{Assertion: "a", Stream: "cam-0", SampleIndex: i, Severity: 1}); err != nil {
			t.Fatalf("Record(%d) = %v", i, err)
		}
	}
}

func TestHTTPSinkDeliversToCollector(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	s, err := NewHTTPSink(fastCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	recordN(t, s, n)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := c.TotalFired(); got != n {
		t.Fatalf("collector ingested %d, want %d", got, n)
	}
	if s.Stats().Delivered != n || s.Dropped() != 0 {
		t.Fatalf("Delivered %d Dropped %d, want %d and 0", s.Stats().Delivered, s.Dropped(), n)
	}
	if s.Stats().Batches < 1 || s.Stats().Batches > n {
		t.Fatalf("Batches = %d", s.Stats().Batches)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(assertion.Violation{}); !errors.Is(err, assertion.ErrSinkClosed) {
		t.Fatalf("Record after Close = %v, want ErrSinkClosed", err)
	}
}

func TestHTTPSinkRetriesTransientFailures(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	inner := c.Handler()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	s, err := NewHTTPSink(fastCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	recordN(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatalf("Close after transient failures: %v", err)
	}
	if got := c.TotalFired(); got != 5 {
		t.Fatalf("collector ingested %d, want 5", got)
	}
	if s.Stats().Retries < 2 || s.Dropped() != 0 {
		t.Fatalf("Retries %d Dropped %d, want >= 2 and 0", s.Stats().Retries, s.Dropped())
	}
}

func TestHTTPSinkRetryAfterLostResponseIsExactlyOnce(t *testing.T) {
	// The nastiest delivery race: the collector applies the batch but the
	// sender never sees the response. The retry carries the same
	// (source, seq), so the collector must dedupe it.
	c := openCollector(t, CollectorConfig{})
	inner := c.Handler()
	var failed atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !failed.Swap(true) {
			inner.ServeHTTP(httptest.NewRecorder(), r) // apply, then lose the response
			http.Error(w, "response lost", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	s, err := NewHTTPSink(fastCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	recordN(t, s, 7)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := c.TotalFired(); got != 7 {
		t.Fatalf("collector ingested %d, want exactly 7 (no double-apply)", got)
	}
}

func TestHTTPSinkCountsDropsWhenServerDown(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing is listening any more

	cfg := fastCfg(url)
	cfg.BatchMax = 4
	s, err := NewHTTPSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	recordN(t, s, n)
	if err := s.Flush(); err == nil {
		t.Fatal("Flush should surface the delivery failure")
	}
	if got := s.Dropped(); got != n {
		t.Fatalf("Dropped = %d, want all %d accepted violations", got, n)
	}
	if s.Stats().Delivered != 0 {
		t.Fatalf("Delivered = %d, want 0", s.Stats().Delivered)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close should keep reporting the delivery failure")
	}
}

func TestHTTPSinkDoesNotRetryRejectedPayloads(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "bad wire version", http.StatusBadRequest)
	}))
	defer srv.Close()

	s, err := NewHTTPSink(fastCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	recordN(t, s, 3)
	if err := s.Flush(); err == nil {
		t.Fatal("Flush should surface the rejection")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("a 4xx rejection was retried %d times; retrying the same bytes cannot succeed", got-1)
	}
	if got := s.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	s.Close()
}

func TestHTTPSinkRecoversAfterOutage(t *testing.T) {
	// Unlike a dead file sink, the network can come back: a batch lost to
	// an outage must not latch the sink dead for later batches.
	c := openCollector(t, CollectorConfig{})
	inner := c.Handler()
	var down atomic.Bool
	down.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "outage", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	s, err := NewHTTPSink(fastCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	recordN(t, s, 3)
	if err := s.Flush(); err == nil {
		t.Fatal("Flush during the outage should surface the failure")
	}
	dropped := s.Dropped()
	if dropped == 0 {
		t.Fatal("outage batches must be counted as dropped")
	}

	down.Store(false)
	recordN(t, s, 4)
	if s.Close(); s.Dropped() != dropped {
		t.Fatalf("post-outage batches dropped too: %d, want %d", s.Dropped(), dropped)
	}
	if got := c.TotalFired(); got != 4 {
		t.Fatalf("collector ingested %d after recovery, want 4", got)
	}
}

func TestHTTPSinkValidatesConfig(t *testing.T) {
	if _, err := NewHTTPSink(HTTPSinkConfig{}); err == nil {
		t.Fatal("missing BaseURL must be an error")
	}
	if _, err := NewHTTPSink(HTTPSinkConfig{BaseURL: "collector:9077"}); err == nil {
		t.Fatal("scheme-less BaseURL must be an error")
	}
}

// TestHTTPSinkRecordDuringClose is the export-side companion of the
// assertion package's sink contract test: concurrent producers racing
// Close under -race, with delivered + dropped accounting for every
// accepted violation.
func TestHTTPSinkRecordDuringClose(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	cfg := fastCfg(srv.URL)
	cfg.BatchMax = 16
	s, err := NewHTTPSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 200
	var accepted atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				err := s.Record(assertion.Violation{Assertion: "race", SampleIndex: g*perG + i, Severity: 1})
				if err == nil {
					accepted.Add(1)
					continue
				}
				if !errors.Is(err, assertion.ErrSinkClosed) {
					t.Errorf("Record = %v, want nil or ErrSinkClosed", err)
				}
				return
			}
		}(g)
	}
	closed := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		closed <- s.Close()
	}()
	close(start)
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatalf("Close during recording: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := s.Stats().Delivered + s.Dropped(); got != accepted.Load() {
		t.Fatalf("delivered %d + dropped %d = %d, want the %d accepted",
			s.Stats().Delivered, s.Dropped(), got, accepted.Load())
	}
	if got := c.TotalFired(); int64(got) != s.Stats().Delivered {
		t.Fatalf("collector ingested %d, sink delivered %d", got, s.Stats().Delivered)
	}
}
