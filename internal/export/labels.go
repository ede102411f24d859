package export

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"omg/internal/assertion"
	"omg/internal/consistency"
	"omg/internal/labelsvc"
)

// This file is the collector's HTTP face of the active-learning loop
// (paper §3): the label service ranks the retained violation history with
// a bandit selector, /v1/labels/next leases budgeted, per-assertion-
// diverse batches to label pullers, and /v1/labels/feedback posts labels
// back, marking their samples labeled and releasing their leases.

// LabelsNextPath leases the next labeling batch (GET, ?budget= ?puller=).
const LabelsNextPath = "/v1/labels/next"

// LabelsFeedbackPath posts labels back to the loop (POST).
const LabelsFeedbackPath = "/v1/labels/feedback"

// LabelsStatsPath summarises the labeling loop (GET).
const LabelsStatsPath = "/v1/labels/stats"

// labelSeed is the collector as the label service's ViolationSource: what
// the candidate index is seeded from, and the lock that makes the seed
// atomic against ingest and compaction.
type labelSeed struct{ c *Collector }

// Violations implements labelsvc.ViolationSource: every shard's retained
// log, unmerged — the index does not depend on the order it is read in.
func (l labelSeed) Violations() []assertion.Violation {
	var out []assertion.Violation
	for _, st := range l.c.shards {
		out = append(out, st.Query(assertion.StoreQuery{})...)
	}
	return out
}

// LockSeed implements labelsvc.SeedLocker.
func (l labelSeed) LockSeed() (unlock func()) {
	l.c.seedMu.Lock()
	return l.c.seedMu.Unlock
}

// Labels exposes the collector's label-selection service (tests,
// embedders that drive the loop in process).
func (c *Collector) Labels() *labelsvc.Service { return c.labels }

// LabelsNextResponse is the JSON body of GET /v1/labels/next.
type LabelsNextResponse struct {
	Version        int                  `json:"version"`
	Round          int                  `json:"round"`
	Selector       string               `json:"selector"`
	Budget         int                  `json:"budget"`
	LeaseTTLMillis int64                `json:"lease_ttl_ms"`
	Count          int                  `json:"count"`
	Candidates     []labelsvc.Candidate `json:"candidates"`
}

// LabelsFeedbackRequest is the JSON body of POST /v1/labels/feedback.
// Version 0 is accepted for hand-rolled clients.
type LabelsFeedbackRequest struct {
	Version int                 `json:"version,omitempty"`
	Labels  []labelsvc.Feedback `json:"labels"`
}

// LabelsFeedbackResponse is the JSON body POST /v1/labels/feedback
// answers with.
type LabelsFeedbackResponse struct {
	Applied    int `json:"applied"`
	Duplicates int `json:"duplicates"`
	Round      int `json:"round"`
}

func (c *Collector) handleLabelsNext(w http.ResponseWriter, r *http.Request) {
	start := labelsNextHist.StartIf(true)
	defer labelsNextHist.Done(start)
	q := r.URL.Query()
	budget := 0
	if raw := q.Get("budget"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad budget %q", raw), http.StatusBadRequest)
			return
		}
		budget = n
	}
	batch, err := c.labels.Next(budget, q.Get("puller"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if batch.Candidates == nil {
		batch.Candidates = []labelsvc.Candidate{}
	}
	writeJSON(w, LabelsNextResponse{
		Version:        WireVersion,
		Round:          batch.Round,
		Selector:       batch.Selector,
		Budget:         batch.Budget,
		LeaseTTLMillis: batch.LeaseTTLMillis,
		Count:          len(batch.Candidates),
		Candidates:     batch.Candidates,
	})
}

func (c *Collector) handleLabelsFeedback(w http.ResponseWriter, r *http.Request) {
	var req LabelsFeedbackRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBytes)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("export: decode feedback: %v", err), http.StatusBadRequest)
		return
	}
	if req.Version != 0 && (req.Version < MinWireVersion || req.Version > WireVersion) {
		http.Error(w, fmt.Sprintf("%v: feedback has version %d, want %d..%d", ErrWireVersion, req.Version, MinWireVersion, WireVersion), http.StatusBadRequest)
		return
	}
	res, err := c.labels.ApplyFeedback(req.Labels)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, LabelsFeedbackResponse{Applied: res.Applied, Duplicates: res.Duplicates, Round: res.Round})
}

func (c *Collector) handleLabelsStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.labels.Stats())
}

// WeakLabelEvent is the payload of the live tail's `event: weaklabel`
// frames: one per ingested violation of a consistency-generated
// assertion, carrying the §4.2 corrective proposal its name encodes.
type WeakLabelEvent struct {
	Kind      consistency.ProposalKind `json:"kind"`
	Assertion string                   `json:"assertion"`
	AttrKey   string                   `json:"attr_key,omitempty"`
	Stream    string                   `json:"stream,omitempty"`
	Sample    int                      `json:"sample"`
	Severity  float64                  `json:"severity"`
}

// publishWeakLabel streams a weaklabel tail event when v belongs to a
// consistency-generated assertion. The name check only runs while
// someone is tailing, keeping the ingest hot path untouched otherwise.
func (c *Collector) publishWeakLabel(v assertion.Violation) {
	if c.tail.clientCount() == 0 {
		return
	}
	kind, attrKey, ok := consistency.ProposalKindForAssertion(v.Assertion)
	if !ok {
		return
	}
	ev := WeakLabelEvent{
		Kind:      kind,
		Assertion: v.Assertion,
		AttrKey:   attrKey,
		Stream:    v.Stream,
		Sample:    v.SampleIndex,
		Severity:  v.Severity,
	}
	c.tail.publishEvent("weaklabel", v.Assertion, v.Stream, func() ([]byte, error) {
		return json.Marshal(ev)
	})
}
