package export

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Admission for the collector's ingest path is what runs on every
// request: an already-applied retry is acknowledged first, from its
// headers alone; a collector whose store failed a write rejects new
// work with 503 + Retry-After until it is restarted; and every body is
// bounded by maxIngestBytes (413). Each rejection is counted under
// omg_collector_ingest_rejected_total{reason}.

// Ingest request headers carrying the batch identity out-of-band. An
// HTTPSink stamps both on every POST so the collector can acknowledge
// an already-applied retry without reading or decoding the body — even
// while its store is degraded. The headers MUST match the body's
// Source/Seq (the collector trusts them only for the duplicate fast
// path; actual dedup still keys on the decoded batch).
const (
	SourceHeader = "X-OMG-Source"
	SeqHeader    = "X-OMG-Seq"
)

// degradedRetryAfter is the Retry-After advertised while the store is
// degraded: the condition is latched until an operator restarts the
// collector, so senders should back way off.
const degradedRetryAfter = 5 * time.Second

// ackAppliedRetry answers a request whose (source, seq) headers identify
// a batch at or below the source's applied high-water mark: a retry of
// something the collector already owns, acknowledged as a duplicate
// without reading the body. Reports whether it handled the request.
func (c *Collector) ackAppliedRetry(w http.ResponseWriter, r *http.Request) bool {
	src := r.Header.Get(SourceHeader)
	if src == "" {
		return false
	}
	seq, err := strconv.ParseUint(r.Header.Get(SeqHeader), 10, 64)
	if err != nil || seq == 0 {
		return false
	}
	c.mu.Lock()
	st := c.sources[src]
	c.mu.Unlock()
	if st == nil {
		return false
	}
	// The mark only ever covers fully applied batches (it advances after
	// apply+sync under the source mutex), so acknowledging here is safe
	// even while the original is mid-apply: a concurrent original simply
	// has not advanced the mark yet and falls through to normal ingest.
	mark := st.lastSeq.Load()
	if seq > mark {
		return false
	}
	c.duplicates.Add(1)
	c.logMarks(src, mark)
	writeJSON(w, IngestResponse{Accepted: 0, Duplicate: true})
	return true
}

// rejectDegraded answers one ingest request 503 with a Retry-After of
// degradedRetryAfter, counted under reason store_degraded: cause is the
// store failure that latched (or, for the batch that tripped it, just
// hit) the degraded mode. The batch is not acknowledged, so the sender's
// retry re-delivers it to a healed collector.
func (c *Collector) rejectDegraded(w http.ResponseWriter, cause error) {
	c.rejectIngest(rejectStoreDegraded)
	w.Header().Set("Retry-After", strconv.Itoa(int(degradedRetryAfter/time.Second)))
	http.Error(w, fmt.Sprintf("collector store degraded: %v", cause), http.StatusServiceUnavailable)
}

// degrade latches the collector into reject-with-reason mode: the disk
// store failed a write (ENOSPC, dying device), so accepting more batches
// would acknowledge data the store cannot keep. Queries keep answering
// from memory; /healthz reports 503; the latch clears only with a
// restart (which re-runs recovery against the healed disk).
func (c *Collector) degrade(cause error) {
	if cause == nil {
		return
	}
	c.degradeMu.Lock()
	if c.degradeCause == nil {
		c.degradeCause = cause
	}
	c.degradeMu.Unlock()
	c.degraded.Store(true)
}

// DegradedCause returns the store failure that latched the collector
// degraded, or nil while it is healthy.
func (c *Collector) DegradedCause() error {
	if !c.degraded.Load() {
		return nil
	}
	c.degradeMu.Lock()
	defer c.degradeMu.Unlock()
	return c.degradeCause
}
