package assertion

import "encoding/json"

// RecorderSnapshot is a point-in-time, JSON-serialisable copy of a store's
// state: per-assertion aggregate statistics plus the retained violation
// log. It is the store half of the legacy collector snapshot file
// (internal/export), which an offline import (store.Import) writes into a
// fresh data directory; collectors no longer write one, and the name is the
// wire format's.
type RecorderSnapshot struct {
	// Stats holds each fired assertion's aggregate statistics.
	Stats map[string]Stats `json:"stats,omitempty"`
	// Violations is the retained violation log in arrival order. When the
	// store's in-memory bound has evicted violations the log is
	// partial; LogDropped counts those evictions, and Stats stays
	// complete regardless.
	Violations []Violation `json:"violations,omitempty"`
	// LogDropped is how many violations the bounded in-memory log had
	// evicted when the snapshot was taken.
	LogDropped int64 `json:"log_dropped,omitempty"`
	// Compacted is how many violations retention compaction (Compact) had
	// evicted when the snapshot was taken, so eviction metrics stay
	// monotone across restarts.
	Compacted int64 `json:"compacted,omitempty"`
	// Store is present only in snapshots a disk-backed collector wrote:
	// its segment manifest in place of the violation log, whose data
	// directory — not the snapshot — holds the state. Such a snapshot
	// carries no violations and the import refuses it.
	Store json.RawMessage `json:"store,omitempty"`
}
