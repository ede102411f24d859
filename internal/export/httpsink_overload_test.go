package export

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omg/internal/assertion"
)

// scriptedTransport answers each request with the next entry of script
// (an HTTP status, or 0 for a refused connection), repeating the last
// entry once the script runs out, and records the requests it saw.
type scriptedTransport struct {
	mu     sync.Mutex
	script []int
	seen   []*http.Request
}

func (rt *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.seen = append(rt.seen, req)
	code := rt.script[0]
	if len(rt.script) > 1 {
		rt.script = rt.script[1:]
	}
	if code == 0 {
		return nil, errors.New("connection refused")
	}
	return &http.Response{StatusCode: code, Status: http.StatusText(code), Body: http.NoBody, Header: http.Header{}, Request: req}, nil
}

// then replaces what is left of the script.
func (rt *scriptedTransport) then(script ...int) {
	rt.mu.Lock()
	rt.script = script
	rt.mu.Unlock()
}

func (rt *scriptedTransport) requests() []*http.Request {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]*http.Request(nil), rt.seen...)
}

// Close never sits out a retry wait, but it skips the sleep, not the
// deadline: each skipped wait is still charged to the batch, so a closing
// shipper against a port that refuses at once makes no more attempts than
// it would awake. With a 60s deadline, Close returning promptly proves
// the waits were skipped; the attempt count proves they were charged.
func TestHTTPSinkCloseSkipsBackoffWaits(t *testing.T) {
	const deadline = time.Minute
	rt := &scriptedTransport{script: []int{0}}
	s, err := NewHTTPSink(HTTPSinkConfig{BaseURL: "http://collector.invalid", Deadline: deadline, Client: &http.Client{Transport: rt}})
	if err != nil {
		t.Fatal(err)
	}
	recordN(t, s, 1)
	time.Sleep(20 * time.Millisecond) // let the shipper reach its first backoff sleep
	began := time.Now()
	s.Close()
	if took := time.Since(began); took > 5*time.Second {
		t.Fatalf("Close took %s with a %s deadline; the waits were not skipped", took, deadline)
	}
	if st := s.Stats(); st.Dropped != 1 || st.Drops.Deadline != 1 {
		t.Fatalf("Dropped = %d (%+v), want 1 at the deadline (the loss is counted, not silent)", st.Dropped, st.Drops)
	}
	if n, awake := len(rt.requests()), attemptsUntilDrop(t, deadline, 0); n < 2 || n > awake {
		t.Fatalf("closing shipper made %d attempts, want 2..%d (the awake bound)", n, awake)
	}
}

// A collector's Retry-After stretches the sink's next wait beyond its
// own backoff ladder (still capped at Deadline/5).
func TestHTTPSinkHonorsRetryAfter(t *testing.T) {
	var attempts []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts = append(attempts, time.Now())
		if len(attempts) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "throttled", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	// The default ladder alone would retry after 25–50ms; only the
	// Retry-After can produce a ~1s gap.
	s, err := NewHTTPSink(HTTPSinkConfig{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	recordN(t, s, 3)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}
	s.Close()
	if len(attempts) != 2 {
		t.Fatalf("attempts = %d, want 2", len(attempts))
	}
	if gap := attempts[1].Sub(attempts[0]); gap < 900*time.Millisecond {
		t.Fatalf("retry gap = %s, want >= ~1s from Retry-After", gap)
	}
	if got := s.Stats().Delivered; got != 3 {
		t.Fatalf("Delivered = %d, want 3", got)
	}
}

// Deadline bounds a batch's total wall-clock delivery time against a
// collector that fails every attempt at once.
func TestHTTPSinkDeadline(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	const deadline = 200 * time.Millisecond
	s, err := NewHTTPSink(HTTPSinkConfig{BaseURL: srv.URL, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recordN(t, s, 2)
	began := time.Now()
	s.Flush()
	if took := time.Since(began); took > 2*time.Second {
		t.Fatalf("Flush took %s, want the %s deadline to cut the retries short", took, deadline)
	}
	if st := s.Stats(); st.Dropped != 2 || st.Drops.Deadline != 2 {
		t.Fatalf("Dropped = %d (%+v), want 2 at the deadline", st.Dropped, st.Drops)
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "deadline drop") {
		t.Fatalf("Err = %v, want a deadline failure", err)
	}
	if n, max := hits.Load(), int64(2*attemptsUntilDrop(t, deadline, 0)); n < 2 || n > max {
		t.Fatalf("server saw %d attempts, want 2..%d", n, max)
	}
}

// Two batches in a row dropped at their deadline open the circuit:
// further batches are dropped (counted) without touching the network
// until a Deadline has passed.
func TestHTTPSinkBreakerOpensAndFastDrops(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	s, err := NewHTTPSink(fastCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < circuitAfter; i++ {
		recordN(t, s, 1)
		s.Flush() // runs out its deadline
	}
	if !s.Stats().CircuitOpen {
		t.Fatalf("circuit closed after %d dead batches, want open", circuitAfter)
	}
	before := hits.Load()
	recordN(t, s, 4)
	s.Flush() // open circuit: dropped without a request
	if n := hits.Load(); n != before {
		t.Fatalf("server saw %d more attempts, want none: the open circuit must not touch the network", n-before)
	}
	st := s.Stats()
	if st.Drops.CircuitOpen != 4 || st.Drops.Deadline != 2 {
		t.Fatalf("drops %+v, want 4 circuit_open and 2 deadline", st.Drops)
	}
	if st.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6 (every loss counted)", st.Dropped)
	}
	if err := s.Err(); err == nil {
		t.Fatal("Err = nil, want the first delivery failure retained")
	}
}

// Once a Deadline has passed the next batch goes out as a single-attempt
// probe, and its success closes the circuit.
func TestHTTPSinkBreakerProbeCloses(t *testing.T) {
	var healthy atomic.Bool
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	const deadline = 100 * time.Millisecond
	s, err := NewHTTPSink(HTTPSinkConfig{BaseURL: srv.URL, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < circuitAfter; i++ {
		recordN(t, s, 1)
		s.Flush()
	}
	if !s.Stats().CircuitOpen {
		t.Fatal("circuit did not open after the dead batches")
	}

	healthy.Store(true)
	time.Sleep(2 * deadline) // past the probe time
	before := hits.Load()
	recordN(t, s, 2)
	if err := s.Flush(); err != nil {
		// The retained error is the first batch's failure; delivery state
		// is what matters here.
		t.Logf("Flush retained err (expected from the dead batches): %v", err)
	}
	st := s.Stats()
	if st.CircuitOpen {
		t.Fatal("CircuitOpen = true after a successful probe, want closed")
	}
	if st.Delivered != 2 || hits.Load() == before {
		t.Fatalf("Delivered = %d after %d probes, want 2 (the probe batch itself)", st.Delivered, hits.Load()-before)
	}

	// A closed circuit ships normally again.
	recordN(t, s, 1)
	s.Flush()
	if got := s.Stats().Delivered; got != 3 {
		t.Fatalf("Delivered = %d after recovery, want 3", got)
	}
}

// Any answered request proves the collector alive and closes the circuit
// — a probe answered 4xx included. Otherwise every later batch would ship
// as a single-attempt probe and be lost to one 503 blip while the
// collector is answering.
func TestHTTPSinkAnsweredProbeClosesCircuit(t *testing.T) {
	const deadline = 100 * time.Millisecond
	rt := &scriptedTransport{script: []int{http.StatusServiceUnavailable}}
	s, err := NewHTTPSink(HTTPSinkConfig{BaseURL: "http://collector.invalid", Deadline: deadline, Client: &http.Client{Transport: rt}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < circuitAfter; i++ { // batches 1 and 2 run out their deadline
		recordN(t, s, 1)
		s.Flush()
	}
	if !s.Stats().CircuitOpen {
		t.Fatal("circuit did not open after the dead batches")
	}

	rt.then(http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable, http.StatusOK)
	time.Sleep(2 * deadline)
	recordN(t, s, 1) // batch 3, the probe: rejected, but answered
	s.Flush()
	if st := s.Stats(); st.CircuitOpen || st.Drops.Rejected != 1 {
		t.Fatalf("after a probe answered 413: CircuitOpen %v, drops %+v; want closed and 1 rejected", st.CircuitOpen, st.Drops)
	}
	retries := s.Stats().Retries
	recordN(t, s, 1) // batch 4: one 503 blip, then delivered
	s.Flush()
	if st := s.Stats(); st.Delivered != 1 || st.Retries != retries+1 || st.CircuitOpen {
		t.Fatalf("batch after the answered probe: %+v, want delivered after one retry", st)
	}
}

// A codec fallback resends the same batch: the JSON retry carries the
// Seq the refused binary attempt did.
func TestHTTPSinkFallbackKeepsSeq(t *testing.T) {
	rt := &scriptedTransport{script: []int{http.StatusUnsupportedMediaType, http.StatusOK}}
	s, err := NewHTTPSink(HTTPSinkConfig{BaseURL: "http://collector.invalid", Wire: CodecBinary, Client: &http.Client{Transport: rt}})
	if err != nil {
		t.Fatal(err)
	}
	recordN(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reqs := rt.requests()
	if len(reqs) != 2 {
		t.Fatalf("%d requests, want the refused binary one and its JSON resend", len(reqs))
	}
	if a, b := reqs[0].Header.Get(SeqHeader), reqs[1].Header.Get(SeqHeader); a == "" || a != b {
		t.Fatalf("fallback resent under seq %q, the refused attempt carried %q", b, a)
	}
	if ct := reqs[1].Header.Get("Content-Type"); ct != (jsonCodec{}).ContentType() {
		t.Fatalf("resend Content-Type %q, want JSON", ct)
	}
	if st := s.Stats(); st.Delivered != 3 || st.Dropped != 0 || !st.WireFellBack {
		t.Fatalf("after the fallback: %+v, want 3 delivered, none dropped, fallen back", st)
	}
}

// A collector that accepts connections and never answers cannot stall
// the model: no single Record blocks much longer than one Deadline, and
// every loss is counted.
func TestHTTPSinkBlackHoleBoundsRecord(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Read the body first: only then does the server watch the
		// connection, so the sender giving up ends the handler.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer srv.Close()

	const deadline, n = 300 * time.Millisecond, 20000
	s, err := NewHTTPSink(HTTPSinkConfig{BaseURL: srv.URL, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	var worst time.Duration
	for i := 0; i < n; i++ {
		began := time.Now()
		if err := s.Record(assertion.Violation{Assertion: "a", Stream: "cam-0", SampleIndex: i, Severity: 1}); err != nil {
			t.Fatalf("Record(%d) = %v", i, err)
		}
		worst = max(worst, time.Since(began))
	}
	s.Close()
	if bound := deadline + 250*time.Millisecond; worst > bound {
		t.Fatalf("a Record blocked %s, want at most %s", worst, bound)
	}
	if st := s.Stats(); st.Delivered != 0 || st.Dropped != n {
		t.Fatalf("Delivered %d Dropped %d (%+v), want 0 and all %d counted", st.Delivered, st.Dropped, st.Drops, n)
	}
}
