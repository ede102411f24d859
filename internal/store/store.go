// Package store is the violation storage seam: the pluggable backend the
// export collector keeps each ingest shard's queryable violation log and
// aggregate statistics in.
//
// Two backends implement ViolationStore:
//
//   - MemStore — the in-memory default: a bounded ring-buffer log with
//     O(1) eviction plus lock-free per-assertion statistics; also what an
//     edge assertion.Recorder records into. Fast, but ephemeral: a crash
//     loses everything.
//   - SegmentStore (this package) — an append-only on-disk backend:
//     length-prefixed, CRC-checked segment files holding one violation
//     per record, a per-assertion/stream index for queries, fsync'd
//     segment rolls and checkpoints, crash-safe compaction with the same
//     retention semantics as MemStore.Compact, and exact crash recovery
//     by segment replay.
//
// A record body is the binary wire's per-violation encoding behind one
// tag byte (assertion.AppendViolationRecord): one encoder and one decoder
// from the edge's frame to the disk. Replay dispatches on the body's
// first byte: the tag decodes as binary; '{' is the JSON object stores
// before this format wrote, and still decodes, so an upgrade is in place
// — new records land beside old ones, mixed segments replay in order,
// and compaction rewrites its survivors as binary; anything else is
// ErrCorrupt, never guessed at and never truncated as a torn tail. An
// older binary cannot read binary bodies and refuses the directory.
//
// The interface and the in-memory backend are declared in
// internal/assertion and aliased here: Go's import graph forbids
// assertion -> store (every backend needs the Violation and Stats
// types), and MemStore is the Recorder's own storage. Aliasing makes the
// two packages share one set of types, so a *store.SegmentStore is a
// valid assertion.ViolationStore with no adapter.
//
// Beside the interface, both backends take an EvictionObserver
// (SetEvictionObserver on the concrete type): the seam's other direction,
// through which a store tells its owner what compaction, a ring overflow
// or a wholesale Replace removed from the retained log. The collector
// points it at its label service, which keeps the candidate index
// current from those reports instead of re-reading the log.
package store

import "omg/internal/assertion"

// ViolationStore is the storage seam interface; see
// assertion.ViolationStore for the contract.
type ViolationStore = assertion.ViolationStore

// Query selects retained violations from a store.
type Query = assertion.StoreQuery

// Info describes a store's current shape for metrics.
type Info = assertion.StoreInfo

// EvictionObserver hears what leaves a backend's retained log; both
// backends take one through SetEvictionObserver.
type EvictionObserver = assertion.EvictionObserver

// MemStore is the in-memory backend.
type MemStore = assertion.MemStore

// NewMemStore returns an in-memory store keeping at most limit
// violations in its log (0 or negative = unbounded).
func NewMemStore(limit int) *MemStore { return assertion.NewMemStore(limit) }
