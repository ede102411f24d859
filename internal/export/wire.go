// Package export moves violations across the network — the layer that
// turns the single-process monitoring library into the deployed-pipeline
// topology of the paper (§2.3), where the model and the monitor rarely
// share a process: models run at the edge, violations accumulate at a
// central collector.
//
// It has three parts: a versioned wire format for violation batches (and
// the reader of legacy collector snapshot files); HTTPSink, an
// assertion.Sink that batches, retries and ships a recorder's violation
// stream to a collector over HTTP; and Collector, the
// ingest/aggregate/query service behind cmd/omg-server.
package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"

	"omg/internal/assertion"
	"omg/internal/labelsvc"
	"omg/internal/store"
)

// WireVersion is the version stamped on every batch. Version 2 added the
// collector's label-service state to snapshot files; the batch shape is
// unchanged, so receivers accept any version in [MinWireVersion,
// WireVersion] and reject the rest instead of guessing at their shape.
const WireVersion = 2

// MinWireVersion is the oldest wire version a receiver still accepts.
// Version-1 batches and snapshots decode unchanged (they simply carry no
// label state), so mixed-version fleets keep working across the upgrade.
const MinWireVersion = 1

// IngestPath is the collector endpoint HTTPSink posts batches to.
const IngestPath = "/v1/violations"

// ErrWireVersion reports a payload whose version field does not match
// WireVersion.
var ErrWireVersion = errors.New("export: wire version mismatch")

// Batch is one wire shipment of violations from a sender to a collector.
//
// Source and Seq implement exactly-once ingestion under retries: the
// sender assigns each batch the next sequence number and reuses it for
// every retry of that batch, and the collector ignores a (source, seq) at
// or below the highest it has applied for that source. A sender must
// therefore pick a Source unique per process lifetime (HTTPSink generates
// host-pid-nonce by default).
type Batch struct {
	Version int    `json:"version"`
	Source  string `json:"source,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`

	Violations []assertion.Violation `json:"violations"`
}

// Snapshot is a legacy snapshot file's contents: the state collectors
// once wrote with omg-server -snapshot — the recorder snapshot(s) plus
// the per-source dedup high-water marks and request counters. Collectors
// no longer write them; ImportSnapshot migrates one into a data
// directory, which is the only durable collector state.
type Snapshot struct {
	Version int `json:"version"`

	// Recorder is the single-shard form (and the only form the first
	// snapshots carry). A sharded collector wrote Recorders — one
	// snapshot per shard — and filled Recorder with the merged view
	// alongside. Readers prefer Recorders when present.
	Recorder  assertion.RecorderSnapshot   `json:"recorder"`
	Recorders []assertion.RecorderSnapshot `json:"recorders,omitempty"`

	LastSeq    map[string]uint64 `json:"last_seq,omitempty"`
	Batches    int64             `json:"batches,omitempty"`
	Duplicates int64             `json:"duplicate_batches,omitempty"`
	// Rejected persists the malformed-request counter, so
	// omg_collector_rejected_requests_total does not reset across
	// restarts. Absent in PR-3 snapshots (omitempty), which restore as 0.
	Rejected int64 `json:"rejected,omitempty"`

	// Labels is the label service's full state (wire version 2). Nil in
	// version-1 snapshots: restoring one leaves the labeling loop where
	// the collector's own state file (or a fresh start) put it.
	Labels *labelsvc.State `json:"labels,omitempty"`
}

// AppendBatchJSON appends b's JSON object to dst without reflection and
// returns the extended buffer. The bytes are identical to json.Marshal(b)
// — field order, omitempty on Source and Seq, nil Violations encoding as
// null — which FuzzAppendBatchJSON locks differentially. On error (a
// violation whose Time or Severity JSON cannot represent) dst is returned
// unextended.
func AppendBatchJSON(dst []byte, b Batch) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendInt(dst, int64(b.Version), 10)
	if b.Source != "" {
		dst = append(dst, `,"source":`...)
		dst = assertion.AppendJSONString(dst, b.Source)
	}
	if b.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, b.Seq, 10)
	}
	dst = append(dst, `,"violations":`...)
	dst, err := assertion.AppendViolationsJSON(dst, b.Violations)
	if err != nil {
		return dst[:start], err
	}
	return append(dst, '}'), nil
}

// parseBatchJSON parses a batch in exactly the shape AppendBatchJSON
// writes, optionally followed by JSON whitespace, interning its names in
// in; the violations go through assertion.ParseViolationsJSON, whose
// comment has the rules. ok false declines the body, which then decodes
// through encoding/json. The version is not checked here.
func parseBatchJSON(data []byte, in *assertion.Interner) (b Batch, ok bool) {
	p, ok := bytes.CutPrefix(data, []byte(`{"version":`))
	if !ok {
		return Batch{}, false
	}
	var n int64
	if n, p, ok = assertion.CutJSONInt(p, strconv.IntSize); !ok {
		return Batch{}, false
	}
	b.Version = int(n)
	if q, ok := bytes.CutPrefix(p, []byte(`,"source":`)); ok {
		var src []byte
		if src, p, ok = assertion.CutJSONString(q); !ok {
			return Batch{}, false
		}
		b.Source = in.Intern(src)
	}
	if q, ok := bytes.CutPrefix(p, []byte(`,"seq":`)); ok {
		if b.Seq, p, ok = assertion.CutJSONUint(q); !ok {
			return Batch{}, false
		}
	}
	if p, ok = bytes.CutPrefix(p, []byte(`,"violations":`)); !ok {
		return Batch{}, false
	}
	if b.Violations, p, ok = assertion.ParseViolationsJSON(p, in); !ok {
		return Batch{}, false
	}
	if p, ok = bytes.CutPrefix(p, []byte(`}`)); !ok || len(bytes.TrimLeft(p, " \t\n\r")) != 0 {
		return Batch{}, false
	}
	return b, true
}

// checkBatchVersion enforces the [MinWireVersion, WireVersion] acceptance
// window every codec shares.
func checkBatchVersion(v int) error {
	if v < MinWireVersion || v > WireVersion {
		return fmt.Errorf("%w: batch has version %d, want %d..%d", ErrWireVersion, v, MinWireVersion, WireVersion)
	}
	return nil
}

// ReadSnapshotFile loads a legacy snapshot file and validates its
// version.
func ReadSnapshotFile(path string) (Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, err
	}
	defer f.Close()
	var s Snapshot
	if err := json.NewDecoder(f).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("export: decode snapshot %s: %w", path, err)
	}
	if s.Version < MinWireVersion || s.Version > WireVersion {
		return Snapshot{}, fmt.Errorf("%w: snapshot %s has version %d, want %d..%d", ErrWireVersion, path, s.Version, MinWireVersion, WireVersion)
	}
	return s, nil
}

// ImportSnapshot migrates a legacy snapshot into dataDir, which must be
// empty or absent, as the state of a disk collector with the given shard
// count. Every shape (per-shard Recorders of any count, or the
// single-shard Recorder) is merged and split by stream key — sources are
// not recorded per violation — with the statistics and eviction counters
// on shard 0, so the merged views are the snapshot's; store.Import writes
// each part as a fresh shard. A collector then opened on the directory
// restores the dedup marks, counters and label state and writes them
// beside the shards. Refusing a non-empty directory is what keeps a stale
// snapshot from rolling a collector's state back. A snapshot a disk
// collector wrote carries a segment manifest instead of its violations
// and is refused: that collector's data directory is its state. A failed
// import leaves a partial directory behind; remove it before retrying.
func ImportSnapshot(dataDir string, shards int, s Snapshot) error {
	ents, err := os.ReadDir(dataDir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("export: import: %w", err)
	}
	if len(ents) > 0 {
		return fmt.Errorf("export: import: data dir %s is not empty", dataDir)
	}
	recs := s.Recorders
	if len(recs) == 0 {
		recs = []assertion.RecorderSnapshot{s.Recorder}
	}
	for _, r := range recs {
		if r.Store != nil {
			return errors.New("export: import: a disk collector wrote this snapshot; its data dir, not the snapshot, holds its state")
		}
	}
	m := assertion.MergeRecorderSnapshots(recs...)
	parts := make([]assertion.RecorderSnapshot, max(shards, 1))
	parts[0] = assertion.RecorderSnapshot{Stats: m.Stats, LogDropped: m.LogDropped, Compacted: m.Compacted}
	for _, v := range m.Violations {
		i := assertion.ShardFor(v.Stream, len(parts))
		parts[i].Violations = append(parts[i].Violations, v)
	}
	for i, part := range parts {
		if err := store.Import(store.Config{Dir: shardDir(dataDir, i)}, part); err != nil {
			return err
		}
	}
	c, err := OpenCollector(CollectorConfig{Store: StoreDisk, DataDir: dataDir, Shards: len(parts)})
	if err != nil {
		return err
	}
	for src, seq := range s.LastSeq {
		c.sourceState(src).lastSeq.Store(seq)
	}
	c.batches.Store(s.Batches)
	c.duplicates.Store(s.Duplicates)
	c.rejected.Store(s.Rejected)
	if s.Labels != nil {
		c.labels.RestoreState(*s.Labels)
	}
	c.marksMu.Lock()
	err = c.rewriteMarksLocked()
	c.marksMu.Unlock()
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	return err
}
