package export

import (
	"strings"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/obs"
)

// TestMetricsExpositionStrict runs the collector's whole /metrics page —
// the hand-rolled counters, the obs stage histograms and the Go runtime
// block — through the strict Prometheus text-format parser, so a
// malformed HELP/TYPE line, a non-cumulative bucket or a duplicate series
// anywhere on the page fails CI rather than a scrape.
func TestMetricsExpositionStrict(t *testing.T) {
	c := openCollector(t, CollectorConfig{Retain: 100, Shards: 2})
	defer c.Close()

	// A source name holding every character the label escaper must handle
	// lands in the e2e-age histogram's source label.
	weird := "edge\"q\\u\nx"
	now := time.Now().UnixNano()
	for i, source := range []string{"edge-00", "edge-01", weird} {
		c.Ingest(Batch{
			Version: WireVersion, Source: source, Seq: 1,
			Violations: []assertion.Violation{{
				Assertion: "flicker", Stream: source, SampleIndex: i,
				Severity: 1, ObservedUnixNano: now - int64(2*time.Millisecond),
			}},
		})
	}

	body := metricsBody(t, c)
	if err := obs.ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("/metrics rejected by strict parser: %v\npage:\n%s", err, body)
	}

	// The stage families this PR's dashboards scrape must be present as
	// proper histograms, and the runtime block and the -log tee's loss
	// counter must ride along.
	for _, family := range []string{
		"omg_collector_ingest_decode_seconds",
		"omg_collector_ingest_apply_seconds",
		"omg_collector_e2e_age_seconds",
		"omg_collector_tail_broadcast_seconds",
		"omg_collector_labels_next_seconds",
		"omg_collector_query_seconds",
		"omg_export_deliver_seconds",
		"omg_observe_seconds",
		"omg_store_append_seconds",
	} {
		if !strings.Contains(body, "# TYPE "+family+" histogram") {
			t.Errorf("/metrics is missing histogram family %s", family)
		}
	}
	for _, series := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "omg_collector_log_dropped_total"} {
		if !strings.Contains(body, "\n"+series+" ") {
			t.Errorf("/metrics is missing series %s", series)
		}
	}

	// Every ingested batch carried an observe stamp, so each source owns
	// an e2e-age series — including the escaped one.
	if !strings.Contains(body, `omg_collector_e2e_age_seconds_count{source="edge-00"}`) {
		t.Errorf("e2e age histogram has no edge-00 child:\n%s", body)
	}
	if !strings.Contains(body, `source="edge\"q\\u\nx"`) {
		t.Errorf("e2e age histogram did not escape the weird source label:\n%s", body)
	}
}
