package assertion

import "omg/internal/obs"

// The package's pipeline-stage instruments, registered once on the
// process-wide registry. The observe path's zero-allocation guarantee
// extends to these: Histogram.Record is atomic-array arithmetic, and the
// hottest sites gate their clock reads through obs samplers
// (obs.SetHotSampleEvery tunes the rate).
var (
	// observeHist times Monitor.Observe — window push, suite evaluation
	// and violation recording under evalMu. Sampled.
	observeHist = obs.Default().NewHistogram(
		"omg_observe_seconds",
		"Monitor.Observe evaluation time per sample (sampled via obs.SetHotSampleEvery).")
	// queueWaitHist times how long a sample (or batch chunk) sat on its
	// shard queue between enqueue and the worker picking it up. Sampled.
	queueWaitHist = obs.Default().NewHistogram(
		"omg_pool_queue_wait_seconds",
		"MonitorPool shard-queue wait from enqueue to worker dequeue (sampled).")
	// sinkWriteHist times one JSONL worker cycle: coalescing queued
	// violations, encoding them and the single Write call.
	sinkWriteHist = obs.Default().NewHistogram(
		"omg_sink_write_seconds",
		"JSONL sink worker batch time: coalesce, encode and write.")
	// assertionErrors counts the severities the runtime clamped: NaN and
	// negative read as 0, +Inf as math.MaxFloat64.
	assertionErrors = obs.Default().NewCounterVec(
		"omg_assertion_errors_total",
		"Assertion severities clamped by the runtime, by kind: nan and negative read as 0, inf as the largest finite severity.",
		"kind", "nan", "negative", "inf")
)
