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
)

// postBatchRaw posts a wire batch with the sink's identity headers set
// (the way HTTPSink does) and returns the raw response with its body
// already read.
func postBatchRaw(t *testing.T, url string, b Batch, withHeaders bool) (*http.Response, []byte) {
	t.Helper()
	src := ""
	if withHeaders {
		src = b.Source
	}
	return postIngestRaw(t, url, jsonBody(t, b), src, b.Seq)
}

// postIngestRaw posts body as a JSON ingest request, with the identity
// headers set to (src, seq) unless src is empty.
func postIngestRaw(t *testing.T, url string, body io.Reader, src string, seq uint64) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+IngestPath, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if src != "" {
		req.Header.Set(SourceHeader, src)
		req.Header.Set(SeqHeader, strconv.FormatUint(seq, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	respBody, _ := io.ReadAll(resp.Body)
	return resp, respBody
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
	// A healthy collector admits everything and counts nothing under
	// store_degraded.
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
	duplicate := func(what string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %s: %s", what, resp.Status, body)
		}
		var r IngestResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if !r.Duplicate || r.Accepted != 0 {
			t.Fatalf("%s = %+v, want duplicate", what, r)
		}
	}
	// A headered retry of an applied seq is acknowledged from the headers
	// alone: its body is never read, so not even an undecodable one is
	// rejected.
	resp, body := postIngestRaw(t, srv.URL, strings.NewReader("not a batch"), "edge-01", 7)
	duplicate("headered retry with an undecodable body", resp, body)
	// Without the headers the retry is deduplicated the slow way, by
	// decoding the body.
	resp, body = postBatchRaw(t, srv.URL, mkBatch("edge-01", 7, 8), false)
	duplicate("headerless retry", resp, body)
	if got := c.TotalFired(); got != 160 {
		t.Fatalf("TotalFired after retries = %d, want 160", got)
	}
	if n := c.rejectedBy[rejectStoreDegraded].Load(); n != 0 {
		t.Fatalf("reason %s = %d rejects on a healthy collector", rejectReasonNames[rejectStoreDegraded], n)
	}
}
