package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"omg/internal/assertion"
)

// backendConfigs returns one single-shard collector configuration per
// storage backend.
func backendConfigs(t *testing.T) map[string]CollectorConfig {
	return map[string]CollectorConfig{
		StoreMem:  {Store: StoreMem},
		StoreDisk: {Store: StoreDisk, DataDir: t.TempDir()},
	}
}

// refusingStore lets `through` more appends reach the store it wraps and
// refuses every one after that.
type refusingStore struct {
	assertion.ViolationStore
	through atomic.Int64
}

var errRefused = errors.New("store refused the violation")

func (s *refusingStore) Append(v assertion.Violation) error {
	if s.through.Add(-1) < 0 {
		return errRefused
	}
	return s.ViolationStore.Append(v)
}

// metricValue reads one unlabeled series off the collector's /metrics.
func metricValue(t *testing.T, c *Collector, name string) int {
	t.Helper()
	for _, line := range strings.Split(metricsBody(t, c), "\n") {
		var v int
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("/metrics has no series %s", name)
	return 0
}

// TestStoreRefusalIsNeverCounted is the conservation invariant at the
// store boundary: what the acknowledgements, the ingest counter and
// total_fired say must be what the shard store took — before a store
// fault and after it, however far into the batch the fault lands.
func TestStoreRefusalIsNeverCounted(t *testing.T) {
	for _, through := range []int64{0, 1} {
		for backend, cfg := range backendConfigs(t) {
			t.Run(fmt.Sprintf("%s/through=%d", backend, through), func(t *testing.T) {
				c := openCollector(t, cfg)
				defer c.Close()
				faulty := &refusingStore{ViolationStore: c.shards[0]}
				faulty.through.Store(math.MaxInt64)
				c.shards[0] = faulty
				srv := httptest.NewServer(c.Handler())
				defer srv.Close()

				acked := postBatch(t, srv.URL, mkBatch("edge", 1, 3)).Accepted
				agree := func(when string, want int) {
					t.Helper()
					counter := metricValue(t, c, "omg_collector_violations_total")
					var sum SummaryResponse
					if err := json.Unmarshal(getBody(t, srv.URL+"/v1/summary", http.StatusOK), &sum); err != nil {
						t.Fatal(err)
					}
					if counter != want || sum.TotalFired != want || c.shards[0].TotalFired() != want {
						t.Fatalf("%s: counter %d, total_fired %d, store holds %d; want %d everywhere",
							when, counter, sum.TotalFired, c.shards[0].TotalFired(), want)
					}
				}
				agree("before the fault", acked)

				faulty.through.Store(through)
				resp, body := postBatchRaw(t, srv.URL, mkBatch("edge", 2, 3), true)
				if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
					t.Fatalf("refused batch = %s (Retry-After %q): %s", resp.Status, resp.Header.Get("Retry-After"), body)
				}
				if err := c.DegradedCause(); !errors.Is(err, errRefused) {
					t.Fatalf("DegradedCause = %v, want the store's refusal", err)
				}
				// Only what the store took before refusing is counted, and
				// none of it was acknowledged: the mark stays put, so the
				// sender's retry is fresh work for a healed collector, not a
				// duplicate.
				agree("after the fault", acked+int(through))
				if seq := c.sourceState("edge").lastSeq.Load(); seq != 1 {
					t.Fatalf("dedup mark advanced to %d over a refused batch", seq)
				}
				if resp, _ := postBatchRaw(t, srv.URL, mkBatch("edge", 2, 3), true); resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("retry of the refused batch = %s, want 503", resp.Status)
				}
				if resp, _ := postBatchRaw(t, srv.URL, mkBatch("edge", 1, 3), true); resp.StatusCode != http.StatusOK {
					t.Fatalf("retry of the acknowledged batch = %s, want 200 duplicate", resp.Status)
				}
				agree("after the retries", acked+int(through))
			})
		}
	}
}

// TestIngestRejectsNonFiniteBinaryFrame posts hand-built, CRC-valid frames
// whose Time or Severity no JSON body could carry. Accepted, one of these
// poisoned every query touching it on a mem collector (500) and was
// acknowledged but never stored on a disk one.
func TestIngestRejectsNonFiniteBinaryFrame(t *testing.T) {
	for backend, cfg := range backendConfigs(t) {
		t.Run(backend, func(t *testing.T) {
			c := openCollector(t, cfg)
			defer c.Close()
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()

			rejected := 0
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for _, field := range []string{"time", "severity"} {
					b := mkBatch("edge", uint64(rejected+1), 2)
					if field == "time" {
						b.Violations[1].Time = bad
					} else {
						b.Violations[1].Severity = bad
					}
					resp, err := http.Post(srv.URL+IngestPath, ContentTypeBinary, bytes.NewReader(rawBinaryFrame(b)))
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusBadRequest {
						t.Fatalf("%s = %v: ingest answered %s, want 400", field, bad, resp.Status)
					}
					rejected++
				}
			}
			if got := c.rejectedBy[rejectDecode].Load(); got != int64(rejected) {
				t.Fatalf("decode rejects = %d, want %d", got, rejected)
			}
			if got := c.TotalFired(); got != 0 {
				t.Fatalf("TotalFired = %d after only rejected frames", got)
			}
			// The same frame with finite floats is taken, and stays queryable.
			resp, err := http.Post(srv.URL+IngestPath, ContentTypeBinary, bytes.NewReader(rawBinaryFrame(mkBatch("edge", 1, 2))))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || c.TotalFired() != 2 {
				t.Fatalf("finite frame: %s, TotalFired %d", resp.Status, c.TotalFired())
			}
			getBody(t, srv.URL+"/v1/violations/query", http.StatusOK)
		})
	}
}
