package main

import (
	"bytes"
	"context"
	"fmt"
)

// The traced run repeats a workload against the in-process twin twice —
// once plain, once with spans — so the difference between the two is the
// tracing overhead and nothing else, then fills the per-layer table from
// three sources: the spans (recorded only from this directory's files),
// direct calls into each layer on the inputs the traced run captured, and
// the twin's own /metrics page.
func runTraced(ctx context.Context, cfg runConfig, traceOut string) (*result, error) {
	cfg.InProc = true
	plain, err := runOnce(ctx, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced twin run: %w", err)
	}
	tr := newTracer()
	res, err := runOnce(ctx, cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("traced twin run: %w", err)
	}
	res.Correct = res.Correct && plain.Correct
	res.Failures = append(res.Failures, plain.Failures...)
	if base := plain.Metrics["throughput_per_s"].Value; base > 0 {
		got := res.Metrics["throughput_per_s"].Value
		res.Metrics["trace.overhead_pct"] = measured{100 * (base - got) / base, metricUnits["trace.overhead_pct"]}
	}
	if err := tr.write(traceOut); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return res, nil
}

// serverFamilies maps the spawned server's existing stage histograms to
// the per-layer names their means are reported under, with the factor
// from seconds to the metric's unit.
var serverFamilies = []struct {
	family, metric string
	scale          float64
}{
	{"omg_collector_ingest_decode_seconds", "server.decode_mean_us", 1e6},
	{"omg_collector_ingest_apply_seconds", "server.apply_mean_us", 1e6},
	{"omg_collector_admission_seconds", "server.admission_mean_us", 1e6},
	{"omg_store_append_seconds", "server.store_append_mean_us", 1e6},
	{"omg_store_seal_sync_seconds", "server.seal_sync_mean_ms", 1e3},
	{"omg_collector_labels_next_seconds", "server.labels_next_mean_ms", 1e3},
	{"omg_collector_e2e_age_seconds", "server.e2e_age_mean_ms", 1e3},
}

var serverCounters = []struct{ series, metric string }{
	{"omg_collector_duplicate_batches_total", "export.duplicates"},
	{"omg_collector_rejected_requests_total", "export.rejected"},
	{"omg_collector_tail_dropped_total", "export.tail_dropped"},
	{"omg_collector_retention_evictions_total", "export.retention_evicted"},
}

func scrapeMetrics(h *harness) (scrape, error) {
	body, err := getBytes(h.client, h.col.url()+metricsPath)
	if err != nil {
		return scrape{}, err
	}
	return parseMetrics(bytes.NewReader(body))
}

// traceMetrics turns the finished spans and the collector's /metrics page
// into per-layer metrics and returns the spans folded by name. Histogram
// means are taken since h.scrape0, the page as it read when the workload
// started: the stage histograms are process-wide, and the plain twin run
// that came first has already counted in them.
func traceMetrics(h *harness) (map[string]spanStats, error) {
	now, err := scrapeMetrics(h)
	if err != nil {
		return nil, err
	}
	for _, f := range serverFamilies {
		if mean, ok := now.meanSince(h.scrape0, f.family); ok {
			h.put(f.metric, mean*f.scale)
		}
	}
	for _, c := range serverCounters {
		h.put(c.metric, now.series[c.series])
	}
	stats := h.tr.byName()
	spans := 0
	for _, s := range stats {
		spans += s.Count
	}
	h.put("trace.spans", float64(spans))
	if s, ok := stats["export.handle "+ingestPath]; ok {
		h.put("export.handle_ms", s.MeanMs)
	}
	return stats, nil
}

// replayFrames bounds the Collector.Ingest replay: 1000 frames are 256 K
// violations, about what fleet_ingest and the ops workloads retain.
const replayFrames = 1000

// capturedBatches decodes the ingest frames the twin's middleware kept.
func capturedBatches(h *harness) ([]wireBatch, []violation, error) {
	h.capture.mu.Lock()
	frames := h.capture.frames
	h.capture.mu.Unlock()
	batches := make([]wireBatch, 0, len(frames))
	var vs []violation
	for _, f := range frames {
		b, err := decodeFrame(f.contentType, f.body)
		if err != nil {
			return nil, nil, fmt.Errorf("decode captured frame: %w", err)
		}
		batches = append(batches, b)
		vs = append(vs, b.Violations...)
	}
	return batches, vs, nil
}

// ingestLayerProbes replays the captured frames through both codecs and
// through Collector.Ingest on fresh disk and mem twins, and returns what
// was captured for the store and label probes.
func ingestLayerProbes(h *harness, spec collectorSpec) ([]wireBatch, []violation, error) {
	batches, vs, err := capturedBatches(h)
	if err != nil || len(batches) == 0 {
		return nil, nil, err
	}
	probeCodecs(batches, h.put)
	// The replay collectors have no retention janitor, so they are fed no
	// more than the workloads keep retained: a twin grown to a million
	// violations applies a batch slower than the bounded one under test.
	err = probeCollector(spec, h.tmp, batches[:min(len(batches), replayFrames)], h.put)
	return batches, vs, err
}

// fleetLayerProbes also splits the handler span: what is left of its mean
// after the replayed decode and ingest of this workload's own codec and
// store is the handler's self time, and those parts plus the round trip's
// self time should account for the acknowledgement the client saw.
func fleetLayerProbes(h *harness, spec collectorSpec, acks latencies) error {
	stats, err := traceMetrics(h)
	if err != nil {
		return err
	}
	batches, vs, err := ingestLayerProbes(h, spec)
	if err != nil || len(batches) == 0 {
		return err
	}
	perFrame := float64(len(vs)) / float64(len(batches))
	decodeUs := h.res.Metrics["export.decode_"+codecBinary+"_ns_per_violation"].Value * perFrame / 1e3
	ingestUs := h.res.Metrics["export.ingest_"+spec.Store+"_ns_per_violation"].Value * perFrame / 1e3
	if handle, ok := stats["export.handle "+ingestPath]; ok {
		selfUs := handle.MeanMs*1e3 - decodeUs - ingestUs
		h.put("export.handle_self_us", selfUs)
		if rt, ok := stats["client.roundtrip "+ingestPath]; ok {
			accounted := decodeUs + ingestUs + selfUs + rt.SelfMs*1e3
			h.put("trace.reconcile_ack_pct", 100*accounted/(mean(acks)*1e3))
		}
	}
	return probeStores(h.tmp, vs, spec.RetainPerAssertion, h.put)
}

func opsLayerProbes(h *harness, spec collectorSpec) error {
	if _, err := traceMetrics(h); err != nil {
		return err
	}
	_, vs, err := ingestLayerProbes(h, spec)
	if err != nil {
		return err
	}
	if err := probeStores(h.tmp, vs, 0, h.put); err != nil {
		return err
	}
	return probeLabels(h.tmp, vs, h.put)
}

func edgeLayerProbes(h *harness, feed *edgeFeed, spec collectorSpec) error {
	stats, err := traceMetrics(h)
	if err != nil {
		return err
	}
	if s, ok := stats["client.roundtrip "+ingestPath]; ok {
		h.put("export.httpsink_post_ms", s.MeanMs)
	}
	probeEdgeLayers(feed, h.put)
	_, _, err = ingestLayerProbes(h, spec)
	return err
}

// crashLayerProbes runs while the collector is dead: it times store.Open
// on a copy of the first shard directory, as the kill left it.
func crashLayerProbes(h *harness) error {
	if batches, _, err := capturedBatches(h); err == nil {
		probeCodecs(batches, h.put)
	}
	return probeRecover(h.tmp, shardDir(h.dataDir, 0), h.put)
}
