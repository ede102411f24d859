package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"omg/internal/assertion"
)

func mkBatch(source string, seq uint64, n int) Batch {
	b := Batch{Version: WireVersion, Source: source, Seq: seq}
	for i := 0; i < n; i++ {
		b.Violations = append(b.Violations, assertion.Violation{
			Assertion: "a", Stream: source, SampleIndex: i, Severity: 1,
		})
	}
	return b
}

func TestCollectorIngestDeduplicates(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	if n, dup := c.Ingest(mkBatch("edge-01", 1, 3)); n != 3 || dup {
		t.Fatalf("first batch: accepted %d dup %v", n, dup)
	}
	// A retry of the same (source, seq) — e.g. the response was lost —
	// must not double-count.
	if n, dup := c.Ingest(mkBatch("edge-01", 1, 3)); n != 0 || !dup {
		t.Fatalf("retried batch: accepted %d dup %v, want 0 true", n, dup)
	}
	// The same seq from a different source is a different sender.
	if n, dup := c.Ingest(mkBatch("edge-02", 1, 2)); n != 2 || dup {
		t.Fatalf("other source: accepted %d dup %v", n, dup)
	}
	// Batches without an identity are applied unconditionally.
	if n, dup := c.Ingest(Batch{Version: WireVersion, Violations: mkBatch("", 0, 1).Violations}); n != 1 || dup {
		t.Fatalf("anonymous batch: accepted %d dup %v", n, dup)
	}
	if got := c.TotalFired(); got != 6 {
		t.Fatalf("TotalFired = %d, want 6", got)
	}
}

// jsonBody is b stamped with the current wire version and encoded as the
// JSON codec sends it, for posting to a collector by hand.
func jsonBody(t *testing.T, b Batch) *bytes.Reader {
	t.Helper()
	b.Version = WireVersion
	data, err := AppendBatchJSON(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

func postBatch(t *testing.T, url string, b Batch) IngestResponse {
	t.Helper()
	resp, err := http.Post(url+IngestPath, "application/json", jsonBody(t, b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest returned %s: %s", resp.Status, body)
	}
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getBody(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %s, want %d: %s", url, resp.Status, wantStatus, body)
	}
	return body
}

func TestCollectorHTTPAPI(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// Ingest three batches from two sources, one of them a duplicate.
	b := mkBatch("edge-01", 1, 4)
	b.Violations[3].Assertion = "b"
	b.Violations[3].Stream = "cam-9"
	if r := postBatch(t, srv.URL, b); r.Accepted != 4 || r.Duplicate {
		t.Fatalf("ingest = %+v", r)
	}
	if r := postBatch(t, srv.URL, b); r.Accepted != 0 || !r.Duplicate {
		t.Fatalf("duplicate ingest = %+v", r)
	}
	postBatch(t, srv.URL, mkBatch("edge-02", 1, 2))

	// /healthz
	if got := string(getBody(t, srv.URL+"/healthz", http.StatusOK)); !strings.Contains(got, "ok") {
		t.Fatalf("healthz = %q", got)
	}

	// /v1/summary
	var sum SummaryResponse
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/summary", http.StatusOK), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.TotalFired != 6 || sum.Batches != 2 || sum.DuplicateBatches != 1 || sum.Sources != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Assertions["a"] != 5 || sum.Assertions["b"] != 1 {
		t.Fatalf("summary assertions = %v", sum.Assertions)
	}

	// /v1/violations/query filters by assertion, stream and limit.
	var q QueryResponse
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/violations/query?assertion=b", http.StatusOK), &q); err != nil {
		t.Fatal(err)
	}
	if q.Count != 1 || q.Violations[0].Stream != "cam-9" {
		t.Fatalf("assertion query = %+v", q)
	}
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/violations/query?stream=edge-02", http.StatusOK), &q); err != nil {
		t.Fatal(err)
	}
	if q.Count != 2 {
		t.Fatalf("stream query count = %d, want 2", q.Count)
	}
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/violations/query?limit=3", http.StatusOK), &q); err != nil {
		t.Fatal(err)
	}
	if q.Count != 3 {
		t.Fatalf("limited query count = %d, want 3", q.Count)
	}
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/violations/query?assertion=never-fired", http.StatusOK), &q); err != nil {
		t.Fatal(err)
	}
	if q.Count != 0 || q.Violations == nil {
		t.Fatalf("empty query must return an empty array, got %+v", q)
	}
	getBody(t, srv.URL+"/v1/violations/query?limit=bogus", http.StatusBadRequest)

	// /metrics exposes the counters in Prometheus text format.
	metrics := string(getBody(t, srv.URL+"/metrics", http.StatusOK))
	for _, want := range []string{
		"omg_collector_violations_total 6",
		"omg_collector_batches_total 2",
		"omg_collector_duplicate_batches_total 1",
		`omg_collector_assertion_fired_total{assertion="a"} 5`,
		`omg_collector_assertion_fired_total{assertion="b"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Bad payloads are rejected, counted, and never ingested.
	resp, err := http.Post(srv.URL+IngestPath, "application/json", strings.NewReader(`{"version":42,"violations":[{"assertion":"x"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-version ingest = %s, want 400", resp.Status)
	}
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/summary", http.StatusOK), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.TotalFired != 6 || sum.Rejected != 1 {
		t.Fatalf("after bad ingest: %+v", sum)
	}
}

// TestCollectorSnapshotRestoreKeepsDedup: a legacy snapshot's dedup marks
// survive the import into a data dir.
func TestCollectorSnapshotRestoreKeepsDedup(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	c.Ingest(mkBatch("edge-01", 1, 3))
	c.Ingest(mkBatch("edge-01", 2, 2))

	restored := importInto(t, legacySnapshot(c), 1)
	if got := restored.TotalFired(); got != 5 {
		t.Fatalf("restored TotalFired = %d, want 5", got)
	}
	// A batch retried across the restart must still be a duplicate.
	if n, dup := restored.Ingest(mkBatch("edge-01", 2, 2)); n != 0 || !dup {
		t.Fatalf("retry across restart: accepted %d dup %v", n, dup)
	}
	// New work continues.
	if n, dup := restored.Ingest(mkBatch("edge-01", 3, 1)); n != 1 || dup {
		t.Fatalf("fresh batch after restore: accepted %d dup %v", n, dup)
	}
	var sum SummaryResponse
	srv := httptest.NewServer(restored.Handler())
	defer srv.Close()
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/summary", http.StatusOK), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.TotalFired != 6 || sum.DuplicateBatches != 1 {
		t.Fatalf("summary after restore = %+v", sum)
	}
}

func TestCollectorMetricsEscapesLabels(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	name := "weird\"assertion\\name"
	c.Ingest(Batch{Version: WireVersion, Violations: []assertion.Violation{{Assertion: name, Severity: 1}}})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	metrics := string(getBody(t, srv.URL+"/metrics", http.StatusOK))
	want := fmt.Sprintf("omg_collector_assertion_fired_total{assertion=\"%s\"} 1", `weird\"assertion\\name`)
	if !strings.Contains(metrics, want) {
		t.Fatalf("metrics missing escaped label %q:\n%s", want, metrics)
	}
}

// openCollector is OpenCollector for tests: a configuration error fails
// the test.
func openCollector(t testing.TB, cfg CollectorConfig) *Collector {
	t.Helper()
	c, err := OpenCollector(cfg)
	if err != nil {
		t.Fatalf("OpenCollector: %v", err)
	}
	return c
}
