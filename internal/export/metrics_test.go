package export

import (
	"fmt"
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
// anywhere on the page fails CI rather than a scrape. It runs on both
// store backends: the disk one adds its segment series.
func TestMetricsExpositionStrict(t *testing.T) {
	for _, tc := range []struct {
		name                string
		cfg                 CollectorConfig
		candidates, evicted int // the label index after the ingest below
	}{
		// 118 violations into two 50-slot rings: the newest 50 of edge-00's
		// ring are 25 samples, +2 on the other shard.
		{StoreMem, CollectorConfig{Retain: 100, Shards: 2}, 27, 69},
		// The disk store retains everything; small segments make it roll.
		{StoreDisk, CollectorConfig{Store: StoreDisk, DataDir: t.TempDir(), Shards: 2, SegmentBytes: 1 << 10}, 62, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := openCollector(t, tc.cfg)
			defer c.Close()

			// A source name holding every character the label escaper must
			// handle lands in the e2e-age histogram's source label.
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

			// The stage families this PR's dashboards scrape must be present
			// as proper histograms, and the runtime block and the store's
			// recovery counters must ride along.
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
				"omg_store_recover_seconds",
			} {
				if !strings.Contains(body, "# TYPE "+family+" histogram") {
					t.Errorf("/metrics is missing histogram family %s", family)
				}
			}
			for _, series := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes",
				`omg_store_recovered_records_total{format="json"}`, `omg_store_recovered_records_total{format="binary"}`} {
				if !strings.Contains(body, "\n"+series+" ") {
					t.Errorf("/metrics is missing series %s", series)
				}
			}

			// The label index: a scrape never builds it, so a collector nobody
			// has pulled labels from reports an empty one and no seed; the
			// first label call seeds it, and ingest and ring overflow after
			// that are counted as the events that keep it current.
			for _, series := range []string{
				"omg_collector_labels_candidates 0",
				"omg_collector_labels_seeds_total 0",
				`omg_collector_labels_index_events_total{kind="add"} 0`,
				`omg_collector_labels_index_events_total{kind="evict"} 0`,
				"omg_collector_labels_state_write_errors_total 0",
			} {
				if !strings.Contains(body, "\n"+series+"\n") {
					t.Errorf("/metrics before any label call is missing %q", series)
				}
			}
			c.Labels().Stats()
			for seq := uint64(2); seq <= 60; seq++ { // 118 violations
				c.Ingest(Batch{
					Version: WireVersion, Source: "edge-00", Seq: seq,
					Violations: []assertion.Violation{
						{Assertion: "flicker", Stream: "edge-00", SampleIndex: int(seq), Severity: 1},
						{Assertion: "lights", Stream: "edge-00", SampleIndex: int(seq), Severity: 2},
					},
				})
			}
			body = metricsBody(t, c)
			if err := obs.ValidateExposition([]byte(body)); err != nil {
				t.Fatalf("/metrics rejected by strict parser after label calls: %v", err)
			}
			for _, series := range []string{
				fmt.Sprintf("omg_collector_labels_candidates %d", tc.candidates),
				"omg_collector_labels_seeds_total 1",
				`omg_collector_labels_index_events_total{kind="add"} 118`,
				fmt.Sprintf(`omg_collector_labels_index_events_total{kind="evict"} %d`, tc.evicted),
			} {
				if !strings.Contains(body, "\n"+series+"\n") {
					t.Errorf("/metrics after label calls is missing %q:\n%s", series, grepLines(body, "omg_collector_labels_"))
					break
				}
			}

			// Every ingested batch carried an observe stamp, so each source
			// owns an e2e-age series — including the escaped one.
			if !strings.Contains(body, `omg_collector_e2e_age_seconds_count{source="edge-00"}`) {
				t.Errorf("e2e age histogram has no edge-00 child:\n%s", body)
			}
			if !strings.Contains(body, `source="edge\"q\\u\nx"`) {
				t.Errorf("e2e age histogram did not escape the weird source label:\n%s", body)
			}

			if tc.cfg.Store == StoreDisk {
				// Close passes the stores' seal barrier, so every roll's
				// background fsync has been timed before this scrape.
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				if n := metricValue(t, c, "omg_collector_segments"); n < 1 {
					t.Errorf("omg_collector_segments = %d, want >= 1", n)
				}
				if n := metricValue(t, c, "omg_store_seal_sync_seconds_count"); n < 1 {
					t.Errorf("omg_store_seal_sync_seconds_count = %d, want a populated family", n)
				}
			}
		})
	}
}

func grepLines(page, substr string) string {
	var out []string
	for _, line := range strings.Split(page, "\n") {
		if strings.Contains(line, substr) && !strings.HasPrefix(line, "#") && !strings.Contains(line, "_seconds_") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
