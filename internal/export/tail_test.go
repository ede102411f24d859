package export

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"omg/internal/assertion"
)

// tailConn opens one SSE subscription against a live server and hands
// back a line scanner plus a closer.
func tailConn(t *testing.T, url string) (*bufio.Scanner, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("tail returned %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("tail Content-Type = %q", ct)
	}
	return bufio.NewScanner(resp.Body), func() { resp.Body.Close() }
}

// nextEvent reads lines until one `event:`/`data:` pair completes,
// skipping comments and blank separators.
func nextEvent(t *testing.T, sc *bufio.Scanner) (event, data string) {
	t.Helper()
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			return event, data
		}
	}
	t.Fatalf("tail stream ended early: %v", sc.Err())
	return "", ""
}

func TestTailStreamsIngestedViolations(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	sc, closeTail := tailConn(t, srv.URL+TailPath)
	defer closeTail()
	waitForTailClients(t, c, 1)

	postBatch(t, srv.URL, mkBatch("edge-01", 1, 3))
	for want := 0; want < 3; want++ {
		event, data := nextEvent(t, sc)
		if event != "violation" {
			t.Fatalf("event %d = %q (%s)", want, event, data)
		}
		var v assertion.Violation
		if err := json.Unmarshal([]byte(data), &v); err != nil {
			t.Fatalf("tail event is not a violation: %v (%s)", err, data)
		}
		if v.Assertion != "a" || v.SampleIndex != want || v.IngestUnix == 0 {
			t.Fatalf("tail violation %d = %+v", want, v)
		}
	}
}

func TestTailFilters(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	sc, closeTail := tailConn(t, srv.URL+TailPath+"?assertion=b&stream=cam-1")
	defer closeTail()
	waitForTailClients(t, c, 1)

	b := Batch{Version: WireVersion, Source: "edge-01", Seq: 1, Violations: []assertion.Violation{
		{Assertion: "a", Stream: "cam-1", SampleIndex: 0, Severity: 1}, // wrong assertion
		{Assertion: "b", Stream: "cam-2", SampleIndex: 1, Severity: 1}, // wrong stream
		{Assertion: "b", Stream: "cam-1", SampleIndex: 2, Severity: 1}, // matches
	}}
	postBatch(t, srv.URL, b)
	event, data := nextEvent(t, sc)
	var v assertion.Violation
	if err := json.Unmarshal([]byte(data), &v); err != nil || event != "violation" {
		t.Fatalf("tail event %q %q: %v", event, data, err)
	}
	if v.SampleIndex != 2 {
		t.Fatalf("filter passed the wrong violation: %+v", v)
	}
}

func TestTailSlowConsumerDropsAndCounts(t *testing.T) {
	// A subscriber that never drains its 4-slot buffer loses everything
	// beyond it — dropped and counted, per client and hub-wide — and
	// ingest completes without ever blocking on the laggard.
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	c.tail.buffer = 4
	cl := c.tail.subscribe("", "")
	defer c.tail.unsubscribe(cl)

	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Ingest(mkBatch("edge-01", 1, 100))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ingest stalled behind a slow tail consumer")
	}
	if got := cl.dropped.Load(); got != 96 {
		t.Fatalf("client dropped %d events, want 96", got)
	}
	if got := c.tail.droppedTotal(); got != 96 {
		t.Fatalf("hub dropped %d events, want 96", got)
	}
	if got := c.TotalFired(); got != 100 {
		t.Fatalf("ingested %d violations, want 100 (tail loss must not touch ingest)", got)
	}
	metrics := metricsBody(t, c)
	if !strings.Contains(metrics, "omg_collector_tail_dropped_total 96") ||
		!strings.Contains(metrics, "omg_collector_tail_clients 1") {
		t.Fatalf("metrics missing tail counters:\n%s", metrics)
	}
}

func TestTailEndsOnCollectorClose(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	sc, closeTail := tailConn(t, srv.URL+TailPath)
	defer closeTail()
	waitForTailClients(t, c, 1)

	go c.Close()
	event, _ := nextEvent(t, sc)
	if event != "end" {
		t.Fatalf("expected end event on Close, got %q", event)
	}
	waitForTailClients(t, c, 0)
}

func waitForTailClients(t *testing.T, c *Collector, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.tail.clientCount() != n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := c.tail.clientCount(); got != n {
		t.Fatalf("tail clients = %d, want %d", got, n)
	}
}

func TestCollectorOversizedIngestReturns413(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// A >32 MiB body that is syntactically valid for as long as the
	// decoder reads it, so the size bound — not a parse error — trips.
	body := `{"version":1,"pad":"` + strings.Repeat("x", maxIngestBytes+1<<20) + `"}`
	resp, err := http.Post(srv.URL+IngestPath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest = %s, want 413", resp.Status)
	}
	if got := c.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	if got := c.TotalFired(); got != 0 {
		t.Fatalf("oversized body ingested %d violations", got)
	}
	// A plain malformed body still answers 400.
	resp, err = http.Post(srv.URL+IngestPath, "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest = %s, want 400", resp.Status)
	}
	if got := c.rejected.Load(); got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}
}
