package export

import "omg/internal/obs"

// The export layer's pipeline-stage instruments, registered once on the
// process-wide registry: edge-side delivery on the sender, decode/apply
// and fan-out on the collector, plus the per-source end-to-end violation
// age that ties the two ends together via Violation.ObservedUnixNano.
var (
	// deliverHist times one HTTPSink batch delivery wall-to-wall:
	// encoding, every POST attempt, and the backoff sleeps between them.
	deliverHist = obs.Default().NewHistogram(
		"omg_export_deliver_seconds",
		"HTTPSink batch delivery wall time, including retries and backoff.")
	// ingestDecodeHist times wire decoding of one /v1/violations request,
	// labeled by the codec the request's Content-Type selected — the
	// json-vs-binary decode cost split, live.
	ingestDecodeHist = obs.Default().NewHistogramVec(
		"omg_collector_ingest_decode_seconds",
		"Collector wire decode time per ingest request, by codec.",
		"codec")
	// ingestApplyHist times applying one decoded batch: dedup check,
	// recorder append (and store append when disk-backed), tail publish.
	ingestApplyHist = obs.Default().NewHistogram(
		"omg_collector_ingest_apply_seconds",
		"Collector batch apply time: dedup, record, store, tail publish.")
	// e2eAgeHist charts violation age from the edge sink's observe stamp
	// to collector ingest, per source — the pipeline's end-to-end latency.
	e2eAgeHist = obs.Default().NewHistogramVec(
		"omg_collector_e2e_age_seconds",
		"Violation age from edge observe stamp to collector ingest, per source.",
		"source")
	// tailBroadcastHist times one SSE tail fan-out: rendering the shared
	// frame and enqueueing it to every subscriber.
	tailBroadcastHist = obs.Default().NewHistogram(
		"omg_collector_tail_broadcast_seconds",
		"SSE tail broadcast time: render one frame and enqueue to all subscribers.")
	// labelsNextHist times serving one /v1/labels/next request.
	labelsNextHist = obs.Default().NewHistogram(
		"omg_collector_labels_next_seconds",
		"Label-candidate selection and serve time per /v1/labels/next request.")
	// queryHist times serving one /v1/violations/query request: the
	// per-shard index walks, the merge and the response encode.
	queryHist = obs.Default().NewHistogram(
		"omg_collector_query_seconds",
		"Query serve time per /v1/violations/query request.")
	// admissionHist times admission for admitted requests: the in-flight
	// count and the degraded-latch check that run after the
	// duplicate-retry fast path.
	admissionHist = obs.Default().NewHistogram(
		"omg_collector_admission_seconds",
		"Admission-control time per admitted ingest request.")
)
