package main

// metricDef is one line of BENCHMARK.json's end_to_end or per_layer list.
// The lists below are what the harness reports by; a test holds the
// committed BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd metrics are reported by every workload on every untraced run.
//
// ISSUE 11 named 14 metrics, most of them defined on one workload only
// (reopen_s exists only on crash_reopen). The builder's contract for this
// PR, which the driver checks and which is quoted in README.md, says "With
// --trace 0 the metrics are every end_to_end metric", "Choose metrics that
// are never 0" and "the driver rejects a time that reads exactly the same
// on every run": every workload must measure every metric, and a workload
// cannot print a placeholder for one it does not have. So each metric here
// is a role that every workload fills with an independent measurement of
// its own — README.md's table says with which — and the issue's named
// metrics are those readings or client.* per-layer metrics.
//
// A bound is the share of the parent's median by which the metric may
// worsen before a change is a regression, one per role for all workloads.
// The issue's rule is max(its default, 2 x the measured inter-quartile
// spread); the contract's is stricter ("until every spread you see is
// below a third of its bound", so 3 x) and governs. The widest spreads on
// this shared two-core box are 8-10 % when it is quiet (README.md has the
// table), so every role lands on the contract's 25 % cap. A fifth role,
// collector CPU per item, needed more than 25 % on fleet_ingest when a
// neighbour loaded the host, so by the issue's rule it is demoted to
// client.server_cpu_us_per_item: measured and printed, gated on nothing.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"throughput_per_s", "1/s", higher, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"server_rss_mb", "MB", lower, 0.25},
}

// perLayer metrics come from the traced run: spans and counters recorded
// from the benchmark's own files, direct calls into each layer on inputs
// captured from that run, and the twin's own /metrics page. A workload
// that does not exercise a layer reports 0 for it. The pseudo-layer
// client. holds the load generator's own observations, and the named
// timings the end-to-end roles are made of.
var perLayer = []metricDef{
	{"assertion.suite_eval_ns_per_sample", "ns", lower, 0},
	{"assertion.observe_self_ns_per_sample", "ns", lower, 0},
	{"assertion.pool_dispatch_ns_per_sample", "ns", lower, 0},
	{"assertion.sink_wait_ms", "ms", lower, 0},
	{"assertion.violations_per_sample", "ratio", lower, 0},
	{"assertion.memstore_append_ns_per_violation", "ns", lower, 0},
	{"assertion.memstore_query_ms", "ms", lower, 0},

	{"export.encode_json_ns_per_violation", "ns", lower, 0},
	{"export.encode_binary_ns_per_violation", "ns", lower, 0},
	{"export.decode_json_ns_per_violation", "ns", lower, 0},
	{"export.decode_binary_ns_per_violation", "ns", lower, 0},
	{"export.wire_bytes_per_violation_json", "B", lower, 0},
	{"export.wire_bytes_per_violation_binary", "B", lower, 0},
	{"export.httpsink_post_ms", "ms", lower, 0},
	{"export.httpsink_batch_mean", "count", higher, 0},
	{"export.httpsink_retries", "count", lower, 0},
	{"export.httpsink_dropped", "count", lower, 0},
	{"export.handle_ms", "ms", lower, 0},
	{"export.handle_self_us", "us", lower, 0},
	{"export.ingest_disk_ns_per_violation", "ns", lower, 0},
	{"export.ingest_mem_ns_per_violation", "ns", lower, 0},
	{"export.merged_view_ms", "ms", lower, 0},
	{"export.by_assertion_ms", "ms", lower, 0},
	{"export.duplicates", "count", lower, 0},
	{"export.rejected", "count", lower, 0},
	{"export.tail_dropped", "count", lower, 0},
	{"export.retention_evicted", "count", lower, 0},

	{"store.append_ns_per_violation", "ns", lower, 0},
	{"store.sync_us_per_batch", "us", lower, 0},
	{"store.compact_ms", "ms", lower, 0},
	{"store.compact_rewritten_bytes", "B", lower, 0},
	{"store.query_indexed_ms", "ms", lower, 0},
	{"store.recover_ns_per_record", "ns", lower, 0},
	{"store.segments", "count", lower, 0},
	{"store.bytes_per_violation", "B", lower, 0},

	{"labelsvc.assemble_ms", "ms", lower, 0},
	{"labelsvc.next_ms", "ms", lower, 0},
	{"labelsvc.feedback_ms", "ms", lower, 0},
	{"labelsvc.observe_batch_us", "us", lower, 0},
	{"labelsvc.state_bytes", "B", lower, 0},

	{"obs.record_ns", "ns", lower, 0},
	{"obs.observe_overhead_pct", "%", lower, 0},

	{"server.decode_mean_us", "us", lower, 0},
	{"server.apply_mean_us", "us", lower, 0},
	{"server.admission_mean_us", "us", lower, 0},
	{"server.store_append_mean_us", "us", lower, 0},
	{"server.seal_sync_mean_ms", "ms", lower, 0},
	{"server.labels_next_mean_ms", "ms", lower, 0},
	{"server.e2e_age_mean_ms", "ms", lower, 0},

	{"client.edge_samples_per_s", "1/s", higher, 0},
	{"client.detect_p50_ms", "ms", lower, 0},
	{"client.detect_tail_ms", "ms", lower, 0},
	{"client.pacer_max_late_ms", "ms", lower, 0},
	{"client.ingest_violations_per_s", "1/s", higher, 0},
	{"client.ack_p50_ms", "ms", lower, 0},
	{"client.ack_tail_ms", "ms", lower, 0},
	{"client.ack_max_ms", "ms", lower, 0},
	{"client.query_stream_p50_ms", "ms", lower, 0},
	{"client.query_assertion_p50_ms", "ms", lower, 0},
	{"client.query_newest_p50_ms", "ms", lower, 0},
	{"client.summary_p50_ms", "ms", lower, 0},
	{"client.labels_next_p50_ms", "ms", lower, 0},
	{"client.labels_next_max_ms", "ms", lower, 0},
	{"client.labels_feedback_p50_ms", "ms", lower, 0},
	{"client.reader_requests_per_s", "1/s", higher, 0},
	{"client.trickle_violations_per_s", "1/s", higher, 0},
	{"client.trickle_ack_p50_ms", "ms", lower, 0},
	{"client.trickle_ack_p95_ms", "ms", lower, 0},
	{"client.reopen_s", "s", lower, 0},
	{"client.disk_bytes_per_violation", "B", lower, 0},
	{"client.reopen_rss_mb", "MB", lower, 0},
	{"client.server_cpu_us_per_item", "us", lower, 0},
	{"client.server_peak_rss_mb", "MB", lower, 0},
	{"client.build_s", "s", lower, 0},

	{"trace.spans", "count", lower, 0},
	{"trace.overhead_pct", "%", lower, 0},
	{"trace.reconcile_ack_pct", "%", lower, 0},
	{"trace.reconcile_reopen_pct", "%", lower, 0},
}

// metricUnits maps every defined metric to its unit; recording a name
// that is not in the lists is a bug in the harness.
var metricUnits = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
	}
	return m
}()

const runSeconds = 12 // BENCHMARK.json's run_seconds
