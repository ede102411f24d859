package export

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// postBatchRaw posts a wire batch with the sink's identity headers set
// (the way HTTPSink does) and returns the raw response with its body
// already read.
func postBatchRaw(t *testing.T, url string, b Batch, withHeaders bool) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+IngestPath, jsonBody(t, b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if withHeaders {
		req.Header.Set(SourceHeader, b.Source)
		req.Header.Set(SeqHeader, strconv.FormatUint(b.Seq, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

func TestAdmissionRateLimit429AndRetryAfter(t *testing.T) {
	c := openCollector(t, CollectorConfig{RateLimitBytes: 200, RateBurstBytes: 200})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// The first batch drains the 200-byte bucket into deficit (bodies are
	// admitted whenever the bucket is non-negative, charged in full).
	resp, body := postBatchRaw(t, srv.URL, mkBatch("edge-01", 1, 8), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first batch = %s: %s", resp.Status, body)
	}
	// The second finds the deficit and is throttled with a Retry-After.
	resp, _ = postBatchRaw(t, srv.URL, mkBatch("edge-01", 2, 8), true)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate batch = %s, want 429", resp.Status)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	// A retry of the already-applied seq 1 is acknowledged as a duplicate
	// even though the bucket is still in deficit: throttling must never
	// wedge a sender's dedup window.
	resp, body = postBatchRaw(t, srv.URL, mkBatch("edge-01", 1, 8), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deduped retry under throttle = %s, want 200", resp.Status)
	}
	var r IngestResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Duplicate || r.Accepted != 0 {
		t.Fatalf("deduped retry = %+v, want duplicate", r)
	}
	// Without the identity headers the request is charged to the shared
	// anonymous bucket (attribution needs the header, before the body is
	// read); that bucket is still full, so the retry is admitted and
	// deduplicated the slow way, by decoding the body.
	resp, body = postBatchRaw(t, srv.URL, mkBatch("edge-01", 1, 8), false)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("headerless retry = %s, want 200 via anonymous bucket", resp.Status)
	}
	r = IngestResponse{}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Duplicate {
		t.Fatalf("headerless retry = %+v, want duplicate via body decode", r)
	}
	// Another source has its own bucket.
	if resp, _ := postBatchRaw(t, srv.URL, mkBatch("edge-02", 1, 8), true); resp.StatusCode != http.StatusOK {
		t.Fatalf("other source = %s, want 200", resp.Status)
	}
	metrics := string(getBody(t, srv.URL+"/metrics", http.StatusOK))
	if !strings.Contains(metrics, `omg_collector_ingest_rejected_total{reason="rate_limit"} 1`) {
		t.Fatalf("metrics missing rate_limit rejects:\n%s", metrics)
	}
	if got := c.TotalFired(); got != 16 {
		t.Fatalf("TotalFired = %d, want 16 (throttled batches never applied)", got)
	}
}

func TestAdmissionRateLimitRefills(t *testing.T) {
	c := openCollector(t, CollectorConfig{RateLimitBytes: 64 << 10, RateBurstBytes: 400})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	postBatchRaw(t, srv.URL, mkBatch("edge-01", 1, 16), true)
	resp, _ := postBatchRaw(t, srv.URL, mkBatch("edge-01", 2, 16), true)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("deficit batch = %s, want 429", resp.Status)
	}
	// At 64 KiB/s the few-hundred-byte deficit clears almost instantly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, _ = postBatchRaw(t, srv.URL, mkBatch("edge-01", 2, 16), true)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bucket never refilled: last status %s", resp.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAdmissionMaxInflightSheds(t *testing.T) {
	c := openCollector(t, CollectorConfig{MaxInflight: 1})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	postBatchRaw(t, srv.URL, mkBatch("edge-01", 1, 2), true)

	// Occupy the only slot, as a stuck in-flight request would.
	c.inflight.Add(1)
	resp, _ := postBatchRaw(t, srv.URL, mkBatch("edge-01", 2, 2), true)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed batch = %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// The already-applied retry is still acknowledged while shedding.
	resp, body := postBatchRaw(t, srv.URL, mkBatch("edge-01", 1, 2), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deduped retry while shedding = %s: %s", resp.Status, body)
	}
	c.inflight.Add(-1)
	if resp, _ := postBatchRaw(t, srv.URL, mkBatch("edge-01", 2, 2), true); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after release = %s, want 200", resp.Status)
	}
	metrics := string(getBody(t, srv.URL+"/metrics", http.StatusOK))
	if !strings.Contains(metrics, `omg_collector_ingest_rejected_total{reason="inflight"} 1`) {
		t.Fatalf("metrics missing inflight reject:\n%s", metrics)
	}
}

func TestAdmissionStoreDegradedLatch(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCollector(CollectorConfig{
		Store:               StoreDisk,
		DataDir:             dir,
		StoreFailAfterBytes: 300, // batch 1 flushes; batch 2 trips the fault
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, body := postBatchRaw(t, srv.URL, mkBatch("edge-01", 1, 1), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-fault batch = %s: %s", resp.Status, body)
	}
	// The batch that trips the fault is NOT acknowledged: its violations
	// never reached stable storage and its mark must stay unadvanced, so
	// the sender's retry re-delivers them to a healed collector instead
	// of losing them with the degraded process.
	resp, _ = postBatchRaw(t, srv.URL, mkBatch("edge-01", 2, 8), true)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("triggering batch = %s, want 503", resp.Status)
	}
	if err := c.DegradedCause(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("DegradedCause = %v, want ENOSPC", err)
	}
	// Later ingests are rejected with reason store_degraded up front...
	resp, _ = postBatchRaw(t, srv.URL, mkBatch("edge-01", 3, 3), true)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while degraded = %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded response missing Retry-After")
	}
	// ...a retry of the durably-applied batch 1 is still acknowledged...
	if resp, _ := postBatchRaw(t, srv.URL, mkBatch("edge-01", 1, 1), true); resp.StatusCode != http.StatusOK {
		t.Fatalf("deduped retry while degraded = %s, want 200", resp.Status)
	}
	// ...and a retry of the unmarked triggering batch is NOT treated as a
	// duplicate: it keeps getting 503 until the collector heals.
	if resp, _ := postBatchRaw(t, srv.URL, mkBatch("edge-01", 2, 8), true); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("retry of unacked batch = %s, want 503", resp.Status)
	}
	// /healthz reflects the latch; queries keep answering from memory.
	if got := string(getBody(t, srv.URL+"/healthz", http.StatusServiceUnavailable)); !strings.Contains(got, "store degraded") {
		t.Fatalf("healthz = %q", got)
	}
	metrics := string(getBody(t, srv.URL+"/metrics", http.StatusOK))
	if !strings.Contains(metrics, "omg_collector_store_degraded 1") {
		t.Fatalf("metrics missing degraded gauge:\n%s", metrics)
	}
	if !strings.Contains(metrics, `omg_collector_ingest_rejected_total{reason="store_degraded"} 3`) {
		t.Fatalf("metrics missing store_degraded rejects:\n%s", metrics)
	}

	// Heal by reopening the same directory without the fault: exactly the
	// durably-applied batch survives, and the once-rejected batches are
	// applied fresh on retry.
	if err := c.Close(); err == nil {
		t.Log("Close returned nil despite the stranded pending buffer") // informational: Close surfaces flush errors via stores
	}
	srv.Close()
	h, err := OpenCollector(CollectorConfig{Store: StoreDisk, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := h.TotalFired(); got != 1 {
		t.Fatalf("healed TotalFired = %d, want only the durably-acked batch", got)
	}
	hsrv := httptest.NewServer(h.Handler())
	defer hsrv.Close()
	if resp, _ := postBatchRaw(t, hsrv.URL, mkBatch("edge-01", 2, 8), true); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after heal = %s, want 200", resp.Status)
	}
	if got := h.TotalFired(); got != 9 {
		t.Fatalf("healed TotalFired after retry = %d, want 9", got)
	}
}

func TestAdmissionUnlimitedCollectorUnchanged(t *testing.T) {
	// The zero config has no admission control: everything is admitted
	// and nothing is counted against the new reasons.
	c := openCollector(t, CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	for seq := uint64(1); seq <= 20; seq++ {
		if resp, body := postBatchRaw(t, srv.URL, mkBatch("edge-01", seq, 8), true); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d = %s: %s", seq, resp.Status, body)
		}
	}
	if got := c.TotalFired(); got != 160 {
		t.Fatalf("TotalFired = %d, want 160", got)
	}
	for _, reason := range []rejectReason{rejectRateLimit, rejectInflight, rejectStoreDegraded} {
		if n := c.rejectedBy[reason].Load(); n != 0 {
			t.Fatalf("reason %s = %d rejects on an unlimited collector", rejectReasonNames[reason], n)
		}
	}
}
