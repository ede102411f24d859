// Package store is the violation storage seam: the pluggable backend the
// export collector keeps each ingest shard's queryable violation log and
// aggregate statistics in.
//
// Two backends implement assertion.ViolationStore:
//
//   - MemStore — the in-memory default: a bounded ring-buffer log with
//     O(1) eviction; also what an edge assertion.Recorder records into.
//     Fast, but ephemeral: a crash loses everything.
//   - SegmentStore (this package) — an append-only on-disk backend:
//     segment files that are record logs (below) holding one violation
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
// # The record log
//
// Every append-only file a collector keeps — the segments, the label
// service's labels.log and the export collector's marks.log — is a
// RecordLog, and none writes its own framing. A frame is the body's
// length and its CRC-32 (IEEE), little-endian uint32s (FrameHeader), then
// the owner's fixed header (a segment's 8-byte append sequence number;
// none for the others), then the body. A log has one of two durability
// levels, and its damage rule follows from it:
//
//   - WriteOnly (segments, marks.log): a write reaches the OS and no
//     further; fsync comes at the owner's durability points. A power loss
//     may tear anywhere past the last fsync, so the first bad frame of the
//     newest file and everything after it are a torn tail, truncated at
//     open; a bad frame in a sealed segment refuses the open.
//   - SyncEach (labels.log): every write is fsync'd, and the file checked
//     to be still linked at its path, before it returns. Only the frame
//     being appended can be torn, so a bad frame is a torn tail only if
//     the file ends inside it or only zeros follow; anything else refuses
//     the open, naming the file and the offset.
//
// At either level a frame whose CRC holds but whose body the owner cannot
// decode refuses the open: a crash tears a frame, it does not forge a
// checksum. Replay streams a log through one pooled 1 MiB read chunk,
// whatever the file's size (a frame larger than the chunk is read into a
// buffer of its own), so a replay holds one chunk, never a whole file; it
// applies the damage rules above exactly as a read of the whole file
// would. A write that fails is cut back off the file. A file rewritten
// whole — a checkpoint, a label snapshot, a compacted marks.log — goes
// through WriteFileAtomic: a temp file, fsync, rename, directory fsync;
// SweepTemps removes what a crash left of one.
//
// The interface (assertion.ViolationStore) and the in-memory backend
// (assertion.MemStore) are declared in internal/assertion: Go's import
// graph forbids assertion -> store (every backend needs the Violation and
// Stats types), and MemStore is the Recorder's own storage. The two
// packages share one set of types, so a *store.SegmentStore is a valid
// assertion.ViolationStore with no adapter.
//
// Beside the interface, both backends take an assertion.EvictionObserver
// (SetEvictionObserver on the concrete type): the seam's other direction,
// through which a store tells its owner what compaction or a ring overflow
// removed from the retained log. The collector points it at its label
// service, which keeps the candidate index current from those reports
// instead of re-reading the log.
//
// No store is ever wiped or replaced while open. A legacy snapshot file
// migrates through Import, which writes a fresh SegmentStore directory
// and closes it; the only code that removes segment or checkpoint files
// is compaction's generation swap and recovery completing one.
package store

import "omg/internal/assertion"

// Query selects retained violations from a store.
type Query = assertion.StoreQuery

// Info describes a store's current shape for metrics.
type Info = assertion.StoreInfo
