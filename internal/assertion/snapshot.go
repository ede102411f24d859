package assertion

// RecorderSnapshot is a point-in-time, JSON-serialisable copy of a
// ViolationStore's state (ViolationStore.Export / Replace): per-assertion
// aggregate statistics plus the retained violation log. It is the store
// half of the export wire format (internal/export), letting a collector
// persist its shards across restarts; the name is the wire format's.
type RecorderSnapshot struct {
	// Stats holds each fired assertion's aggregate statistics.
	Stats map[string]Stats `json:"stats,omitempty"`
	// Violations is the retained violation log in arrival order. When the
	// store's in-memory bound has evicted violations the log is
	// partial; LogDropped counts those evictions, and Stats stays
	// complete regardless.
	//
	// A disk-backed store omits Violations entirely (see Store): the
	// segment files are the durable log, and embedding a copy here would
	// make every checkpoint O(retained log).
	Violations []Violation `json:"violations,omitempty"`
	// LogDropped is how many violations the bounded in-memory log had
	// evicted when the snapshot was taken.
	LogDropped int64 `json:"log_dropped,omitempty"`
	// Compacted is how many violations retention compaction (Compact) had
	// evicted when the snapshot was taken, so eviction metrics stay
	// monotone across restarts.
	Compacted int64 `json:"compacted,omitempty"`
	// Store, when present, marks a cheap checkpoint from a durable
	// backend: instead of embedding the violation log, the snapshot
	// carries the store's manifest and high-water marks, and the store
	// recovers the log itself from its segment files on restart.
	Store *StoreCheckpoint `json:"store,omitempty"`
}

// TotalFired returns the total violation count across the snapshot's
// statistics — the restored value of ViolationStore.TotalFired.
func (s RecorderSnapshot) TotalFired() int {
	total := 0
	for _, st := range s.Stats {
		total += st.Fired
	}
	return total
}
