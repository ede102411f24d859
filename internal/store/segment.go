package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"omg/internal/assertion"
	"omg/internal/obs"
)

// ErrClosed reports an append or sync on a closed SegmentStore.
var ErrClosed = errors.New("store: segment store is closed")

// ErrCorrupt reports a record log damaged beyond a torn tail, or holding
// a record its owner cannot decode (see the package comment).
var ErrCorrupt = errors.New("store: corrupt record log")

// ErrDiskFull is the synthetic disk-full failure injected by
// Config.FailWritesAfterBytes. It wraps syscall.ENOSPC, so callers that
// check errors.Is(err, syscall.ENOSPC) treat the injected fault exactly
// like the real one.
var ErrDiskFull = fmt.Errorf("injected disk full: %w", syscall.ENOSPC)

const (
	segmentBackend = "segment"

	// seqHeader is a segment frame's owner header: the record's u64
	// append sequence number, little-endian. A body is written as
	// assertion.AppendViolationRecord — one tag byte and the binary wire
	// layout — and read by its first byte: the tag is that, '{' is the
	// JSON body stores before the binary format wrote (still replayed;
	// compaction rewrites it as binary), and anything else is refused as
	// ErrCorrupt naming the byte.
	seqHeader = 8

	// recordHeader is everything before a segment record's body.
	recordHeader = FrameHeader + seqHeader

	// compactChunk is how much compaction encodes before each write to
	// the segment it is building.
	compactChunk = 256 << 10

	// flushThreshold is the pending-buffer size that forces a write to
	// the active segment even without an explicit Sync.
	flushThreshold = 64 << 10

	checkpointName = "checkpoint.json"
)

// DefaultSegmentBytes is the segment roll threshold when Config leaves
// SegmentBytes zero. Rolls are the append path's only fsyncs, and an
// fsync stalls the appending caller for as long as the device takes to
// persist the whole segment — so the default is sized to amortise that
// stall far below the per-record work (omg_store_seal_sync_seconds times
// it; the harness reports it as server.seal_sync_mean_ms), while
// keeping recovery replay and compaction granular enough. Smaller
// segments tighten the machine-crash window at a direct ingest-latency
// cost; process-crash (SIGKILL) recovery is exact at any size.
const DefaultSegmentBytes = 64 << 20

// Config configures a SegmentStore.
type Config struct {
	// Dir is the data directory; it is created if missing. One
	// SegmentStore owns a directory — two stores over the same directory
	// corrupt each other.
	Dir string
	// SegmentBytes is the roll threshold: once the active segment reaches
	// it, the segment is fsync'd, sealed and a new one started
	// (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// FailWritesAfterBytes injects a deterministic disk-full fault for
	// chaos testing: once this store has handed that many bytes to
	// write(2) across its lifetime (recovery replay not counted), every
	// further segment write fails with ErrDiskFull. The pending buffer
	// is retained on failure, exactly as with a real ENOSPC, so a healed
	// (restarted, fault-free) store still recovers everything that was
	// flushed before the fault. 0 disables.
	FailWritesAfterBytes int64
}

// segMeta describes one sealed segment file.
type segMeta struct {
	num     int
	records int
	bytes   int64
}

// segCheckpoint is the on-disk checkpoint file: the aggregate statistics
// as of AppendSeq, the live-segment manifest, and the eviction counters.
// Recovery replays every record with a sequence number above AppendSeq
// into the statistics, which makes them exact even though appends between
// checkpoints never rewrite this file.
type segCheckpoint struct {
	Version   int                        `json:"version"`
	AppendSeq uint64                     `json:"append_seq"`
	Stats     map[string]assertion.Stats `json:"stats,omitempty"`
	Dropped   int64                      `json:"dropped,omitempty"`
	Compacted int64                      `json:"compacted,omitempty"`
	Segments  []Segment                  `json:"segments,omitempty"`
}

// Segment describes one live segment file in a checkpoint manifest.
type Segment struct {
	Name    string `json:"name"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
}

// checkpointVersion stamps segCheckpoint files.
const checkpointVersion = 1

// SegmentStore is the on-disk ViolationStore: rolling segment files, each
// a WriteOnly RecordLog of one binary-encoded violation per record (see
// seqHeader), mirrored in memory for queries.
//
// The mirror is a flat assertion.RowLog, indexed from open: one 56-byte
// row per retained record with no pointer, its assertion and stream as
// ids into the log's name table. With the postings that is about 65 B of
// heap per retained violation after a reopen and 76 B while appending,
// and the garbage collector does not scan it. A Violation is built only
// for what leaves the store: a query's answer, compaction's re-encode and
// the evictions it reports. Nothing leaves the mirror but through
// Compact, so a store without a retention policy is bounded only by RAM.
//
// Durability model: every record is buffered in memory and written to
// the active segment with a single write syscall on Sync (the collector
// syncs once per ingested batch) or when the buffer exceeds 64 KiB —
// after the write returns, the record survives a process crash (SIGKILL)
// exactly. fsync happens on segment rolls, checkpoints, compaction and
// close, so a machine crash loses at most the tail of the active segment
// since the last checkpoint. The roll fsync runs on a background
// goroutine — a sealed segment is immutable, so syncing it needs no lock
// and must not stall appends for hundreds of milliseconds; checkpoints,
// compaction and Close wait for outstanding seals (and surface their
// errors) before claiming durability. Recovery replays the segment
// files: a torn record at the tail of the newest segment is truncated
// away; corruption anywhere else refuses to open.
//
// Statistics are exact across crashes without per-append checkpoint
// writes: every record carries a monotone append sequence number, the
// checkpoint stores the statistics as of its sequence high-water mark,
// and recovery folds only records above that mark back in — compaction
// can delete older records freely because their contribution is already
// inside the checkpointed statistics.
//
// All methods are safe for concurrent use.
type SegmentStore struct {
	mu sync.Mutex

	dir       string
	segBytes  int64
	failAfter int64 // injected disk-full threshold (Config.FailWritesAfterBytes)
	written   int64 // bytes handed to write(2) since Open, for failAfter

	active     *RecordLog // its Size excludes pending
	activeNum  int
	activeRecs int

	pending     []byte
	pendingRecs int
	scratch     []byte // compaction's encode chunk, kept between cycles

	finalized []segMeta // sealed segments, ascending

	sealWG  sync.WaitGroup // background fsync+close of sealed segments
	sealMu  sync.Mutex     // guards sealErr (never taken with mu held by the sealer)
	sealErr error          // first background seal failure, latched

	// log mirrors the on-disk records, in arrival order, one row each; its
	// Observer hears what compaction evicts from it.
	log assertion.RowLog

	stats     assertion.StatsTable
	appendSeq uint64
	dropped   int64
	compacted int64
	closed    bool

	// obsSample gates the append histogram's clock reads; mutated under
	// mu, which is what makes the non-atomic sampler safe here.
	obsSample obs.Sampler
}

// SetEvictionObserver makes o hear every later eviction from the retained
// log; nil detaches.
func (s *SegmentStore) SetEvictionObserver(o assertion.EvictionObserver) {
	s.mu.Lock()
	s.log.Observer = o
	s.mu.Unlock()
}

// Open opens (or creates) the segment store in cfg.Dir, running crash
// recovery over whatever the directory holds: checkpoint manifest,
// sealed segments, a torn active tail, or the half-renamed files of an
// interrupted compaction.
func Open(cfg Config) (*SegmentStore, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &SegmentStore{
		dir:       cfg.Dir,
		segBytes:  cfg.SegmentBytes,
		failAfter: cfg.FailWritesAfterBytes,
		obsSample: obs.HotSampler(),
	}
	s.log.Index()
	start := time.Now()
	if err := s.recover(); err != nil {
		return nil, err
	}
	recoverHist.Record(time.Since(start))
	return s, nil
}

func segName(num int) string { return fmt.Sprintf("seg-%08d.log", num) }

// segNum parses a segment number out of a seg-NNNNNNNN.log name.
func segNum(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".log")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// recover rebuilds the store from the data directory. See the type doc
// for the invariants it restores.
func (s *SegmentStore) recover() error {
	cp, haveCP, err := s.readCheckpoint()
	if err != nil {
		return err
	}

	names, tmps, err := s.scanDir()
	if err != nil {
		return err
	}

	var live []int
	coveredSeq := uint64(0)
	if haveCP {
		coveredSeq = cp.AppendSeq
		s.stats.Set(cp.Stats)
		s.dropped = cp.Dropped
		s.compacted = cp.Compacted

		manifest := make(map[int]bool, len(cp.Segments))
		maxManifest := 0
		for _, seg := range cp.Segments {
			num, ok := segNum(seg.Name)
			if !ok {
				return fmt.Errorf("%w: checkpoint names segment %q", ErrCorrupt, seg.Name)
			}
			manifest[num] = true
			if num > maxManifest {
				maxManifest = num
			}
			if !names[num] {
				// A compaction crashed after writing the checkpoint but
				// before renaming this survivor into place: promote it.
				if !tmps[num] {
					return fmt.Errorf("%w: segment %s is in the checkpoint manifest but missing on disk", ErrCorrupt, seg.Name)
				}
				if err := os.Rename(filepath.Join(s.dir, seg.Name+".tmp"), filepath.Join(s.dir, seg.Name)); err != nil {
					return fmt.Errorf("store: promote %s: %w", seg.Name, err)
				}
				names[num] = true
				delete(tmps, num)
			}
		}
		for num := range names {
			if manifest[num] || num > maxManifest {
				// Manifest members and segments rolled after the
				// checkpoint are live.
				live = append(live, num)
				continue
			}
			// Sealed before the checkpoint but absent from its manifest:
			// compaction evicted it and crashed before the delete.
			if err := os.Remove(filepath.Join(s.dir, segName(num))); err != nil {
				return fmt.Errorf("store: drop stale segment: %w", err)
			}
		}
	} else {
		for num := range names {
			live = append(live, num)
		}
	}
	// Leftover .tmp survivors from a compaction that crashed before its
	// checkpoint are dead: the pre-compaction segments are still live.
	for num := range tmps {
		if err := os.Remove(filepath.Join(s.dir, segName(num)+".tmp")); err != nil {
			return fmt.Errorf("store: drop orphan temp segment: %w", err)
		}
	}
	sort.Ints(live)

	// One exact reservation for every live segment's records, not a
	// reallocation and copy of the mirror per segment; and one read chunk
	// for every count and replay, not one per file.
	chunk := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(chunk)
	frames := 0
	for _, num := range live {
		n, err := s.segLog(num).countFrames(chunk)
		if err != nil {
			return err
		}
		frames += n
	}
	s.log.Reserve(frames)

	maxSeq := coveredSeq
	for i, num := range live {
		meta, segMax, err := s.replaySegment(chunk, num, coveredSeq, i == len(live)-1)
		if err != nil {
			return err
		}
		if segMax > maxSeq {
			maxSeq = segMax
		}
		s.finalized = append(s.finalized, meta)
	}
	s.appendSeq = maxSeq

	// The highest segment resumes as the active one unless it is already
	// at the roll threshold.
	next := 1
	if n := len(s.finalized); n > 0 {
		last := s.finalized[n-1]
		if last.bytes < s.segBytes {
			s.finalized = s.finalized[:n-1]
			return s.openSegment(last.num, last.records)
		}
		next = last.num + 1
	}
	return s.openSegment(next, 0)
}

// scanDir inventories segment files: names maps live numbers, tmps maps
// numbers with a .tmp survivor file. Stray checkpoint temp files are
// removed.
func (s *SegmentStore) scanDir() (names, tmps map[int]bool, err error) {
	if err := SweepTemps(s.checkpointPath()); err != nil {
		return nil, nil, err
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: scan dir: %w", err)
	}
	names, tmps = make(map[int]bool), make(map[int]bool)
	for _, ent := range ents {
		name := ent.Name()
		if base, ok := strings.CutSuffix(name, ".tmp"); ok {
			if num, ok := segNum(base); ok {
				tmps[num] = true
			}
			continue
		}
		if num, ok := segNum(name); ok {
			names[num] = true
		}
	}
	return names, tmps, nil
}

func (s *SegmentStore) readCheckpoint() (segCheckpoint, bool, error) {
	var cp segCheckpoint
	data, err := os.ReadFile(s.checkpointPath())
	if errors.Is(err, os.ErrNotExist) {
		return cp, false, nil
	}
	if err != nil {
		return cp, false, fmt.Errorf("store: read checkpoint: %w", err)
	}
	if err := json.Unmarshal(data, &cp); err != nil {
		return cp, false, fmt.Errorf("%w: checkpoint: %v", ErrCorrupt, err)
	}
	if cp.Version != checkpointVersion {
		return cp, false, fmt.Errorf("%w: checkpoint has version %d, want %d", ErrCorrupt, cp.Version, checkpointVersion)
	}
	return cp, true, nil
}

// replaySegment reads one segment through chunk into the in-memory
// mirror, its names straight into the log's name table, folding records
// above coveredSeq into the statistics. The newest segment is the only one a crash can
// tear, so a torn tail there is truncated away and damage anywhere else
// refuses the open (RecordLog.Replay); a record that passes the length
// and CRC checks and still does not decode is corruption, or a newer
// writer's format, and is refused wherever it sits.
func (s *SegmentStore) replaySegment(chunk *[]byte, num int, coveredSeq uint64, newest bool) (segMeta, uint64, error) {
	meta := segMeta{num: num}
	maxSeq := uint64(0)
	var jsonBodies, binaryBodies int64
	err := s.segLog(num).replay(chunk, !newest, func(hdr, body []byte) error {
		var v assertion.Violation
		var name, stream uint32
		if body[0] == '{' {
			var err error
			if v, err = decodeJSONBody(body); err != nil {
				return err
			}
			name, stream = s.log.Intern(v.Assertion), s.log.Intern(v.Stream)
			jsonBodies++
		} else {
			a, st, err := assertion.DecodeViolationRecord(body, &v)
			if err != nil {
				return err
			}
			name, stream = s.log.InternBytes(a), s.log.InternBytes(st)
			binaryBodies++
		}
		seq := binary.LittleEndian.Uint64(hdr)
		if seq > coveredSeq {
			v.Assertion = s.log.Names()[name]
			s.stats.Fold(&v)
		}
		maxSeq = max(maxSeq, seq)
		s.log.Append(seq, name, stream, &v)
		meta.records++
		meta.bytes += int64(recordHeader + len(body))
		return nil
	})
	if err != nil {
		return segMeta{}, 0, err
	}
	recoveredRecords.Add("json", jsonBodies)
	recoveredRecords.Add("binary", binaryBodies)
	return meta, maxSeq, nil
}

// decodeJSONBody decodes a record body written before the binary format.
// It is its own function so that encoding/json, which makes its target
// escape to the heap, costs the binary path's violation nothing.
func decodeJSONBody(body []byte) (assertion.Violation, error) {
	var v assertion.Violation
	err := json.Unmarshal(body, &v)
	return v, err
}

// segLog is segment num's record log, not yet open.
func (s *SegmentStore) segLog(num int) *RecordLog {
	return &RecordLog{Path: filepath.Join(s.dir, segName(num)), Hdr: seqHeader}
}

// openSegment makes segment num, holding records records, the active
// one.
func (s *SegmentStore) openSegment(num, records int) error {
	seg := s.segLog(num)
	if err := seg.Open(); err != nil {
		return err
	}
	s.active, s.activeNum, s.activeRecs = seg, num, records
	return nil
}

// appendRecord frames v as one record on dst: the header, then the
// tagged binary body it checksums. Every record this store writes —
// Append, compaction's survivors, Import's migration — is framed here.
// On error (a non-finite Time or Severity) dst is returned unextended.
func appendRecord(dst []byte, seq uint64, v *assertion.Violation) ([]byte, error) {
	start := len(dst)
	var hdr [recordHeader]byte
	out, err := assertion.AppendViolationRecord(append(dst, hdr[:]...), v)
	if err != nil {
		return dst, err
	}
	binary.LittleEndian.PutUint64(out[start+FrameHeader:], seq)
	sealFrame(out[start:], seqHeader)
	return out, nil
}

// Append implements ViolationStore. The record lands in the pending
// buffer; Sync (or the 64 KiB threshold, or a segment roll) hands it to
// the OS.
func (s *SegmentStore) Append(v assertion.Violation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	start := appendHist.StartIf(s.obsSample.Next())
	err := s.bufferLocked(v)
	if err == nil {
		s.stats.Fold(&v)
		err = s.maybeFlushRollLocked()
	}
	appendHist.Done(start)
	return err
}

// bufferLocked frames v as the next record in the pending buffer and
// mirrors it. A violation the encoder refuses leaves the store untouched.
func (s *SegmentStore) bufferLocked(v assertion.Violation) error {
	seq := s.appendSeq + 1
	pending, err := appendRecord(s.pending, seq, &v)
	if err != nil {
		return err
	}
	s.pending = pending
	s.pendingRecs++
	s.appendSeq = seq
	s.log.Append(seq, s.log.Intern(v.Assertion), s.log.Intern(v.Stream), &v)
	return nil
}

// maybeFlushRollLocked flushes when the pending buffer is large and
// rolls when the active segment (flushed + pending) has reached the
// threshold.
func (s *SegmentStore) maybeFlushRollLocked() error {
	if s.active.Size()+int64(len(s.pending)) >= s.segBytes {
		return s.rollLocked()
	}
	if len(s.pending) >= flushThreshold {
		return s.flushLocked()
	}
	return nil
}

// flushLocked writes the pending buffer to the active segment with one
// write syscall; after it returns, those records survive a process
// crash.
func (s *SegmentStore) flushLocked() error {
	if len(s.pending) == 0 {
		return nil
	}
	if s.failAfter > 0 && s.written+int64(len(s.pending)) > s.failAfter {
		// The injected fault mirrors a real full disk: the write "fails",
		// pending is retained, and every later flush fails the same way.
		return fmt.Errorf("store: write segment: %w", ErrDiskFull)
	}
	if err := s.active.Write(s.pending); err != nil {
		return err
	}
	s.written += int64(len(s.pending))
	s.activeRecs += s.pendingRecs
	s.pending = s.pending[:0]
	s.pendingRecs = 0
	return nil
}

// rollLocked seals the active segment and starts the next one. The
// sealed file is flushed here (so every record is already past write(2))
// but fsynced and closed on a background goroutine: the file is
// immutable from this point, and an in-line fsync of a segment-sized
// file stalls the append path for as long as the disk needs to drain it.
// sealBarrierLocked collects the outcome at the next durability point.
func (s *SegmentStore) rollLocked() error {
	if err := s.flushLocked(); err != nil {
		return err
	}
	sealed, num := s.active, s.activeNum
	s.finalized = append(s.finalized, segMeta{num: num, records: s.activeRecs, bytes: sealed.Size()})
	s.sealWG.Add(1)
	go func() {
		defer s.sealWG.Done()
		start := sealSyncHist.StartIf(true)
		err := sealed.Sync()
		if cerr := sealed.Close(); err == nil {
			err = cerr
		}
		sealSyncHist.Done(start)
		if err != nil {
			s.sealMu.Lock()
			if s.sealErr == nil {
				s.sealErr = fmt.Errorf("store: seal %s: %w", segName(num), err)
			}
			s.sealMu.Unlock()
		}
	}()
	return s.openSegment(num+1, 0)
}

// sealBarrierLocked waits for every background seal to finish and
// returns the first seal failure, if any. Durability points (checkpoint,
// compaction, Close) must pass this barrier before promising that
// sealed segments are on stable storage.
func (s *SegmentStore) sealBarrierLocked() error {
	s.sealWG.Wait()
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	return s.sealErr
}

// Sync implements ViolationStore: flush the pending buffer to the OS.
func (s *SegmentStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

// manifestLocked lists the live segments, active last.
func (s *SegmentStore) manifestLocked() []Segment {
	out := make([]Segment, 0, len(s.finalized)+1)
	for _, m := range s.finalized {
		out = append(out, Segment{Name: segName(m.num), Records: m.records, Bytes: m.bytes})
	}
	out = append(out, Segment{Name: segName(s.activeNum), Records: s.activeRecs, Bytes: s.active.Size()})
	return out
}

// checkpointLocked makes the store durable: flush, fsync the active
// segment, and atomically replace the checkpoint file with the current
// statistics, manifest and sequence high-water mark.
func (s *SegmentStore) checkpointLocked() error {
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := s.sealBarrierLocked(); err != nil {
		return err
	}
	if err := s.active.Sync(); err != nil {
		return err
	}
	cp := segCheckpoint{
		Version:   checkpointVersion,
		AppendSeq: s.appendSeq,
		Stats:     s.stats.All(),
		Dropped:   s.dropped,
		Compacted: s.compacted,
		Segments:  s.manifestLocked(),
	}
	return s.writeCheckpointFile(cp)
}

func (s *SegmentStore) writeCheckpointFile(cp segCheckpoint) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode checkpoint: %w", err)
	}
	return WriteFileAtomic(s.checkpointPath(), append(data, '\n'))
}

func (s *SegmentStore) checkpointPath() string { return filepath.Join(s.dir, checkpointName) }

// Query implements ViolationStore from the in-memory mirror and its
// posting index, building a Violation for each row it answers with.
func (s *SegmentStore) Query(q Query) []assertion.Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Query(q)
}

// IndexSize reports the query index's keys and postings and its zone
// map's broken bounds (see assertion.PostingIndex.Size).
func (s *SegmentStore) IndexSize() (keys, postings, badBounds int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.IndexSize()
}

// StatsAll implements ViolationStore.
func (s *SegmentStore) StatsAll() map[string]assertion.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.All()
}

// TotalFired implements ViolationStore.
func (s *SegmentStore) TotalFired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Total()
}

// Dropped implements ViolationStore. The on-disk log has no size bound
// of its own, so this is nonzero only when a legacy snapshot carrying a
// drop count was imported.
func (s *SegmentStore) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Compacted implements ViolationStore.
func (s *SegmentStore) Compacted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compacted
}

// IngestRuns implements ViolationStore.
func (s *SegmentStore) IngestRuns() map[string][]assertion.IngestRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.IngestRuns()
}

// Compact implements ViolationStore with the same retention semantics as
// the in-memory backend (assertion.RowLog.Plan), rewriting the live
// segments with only the surviving records. The protocol is crash-safe at every step: survivors are written to
// .tmp files under NEW segment numbers (original sequence numbers
// preserved), fsync'd, then a checkpoint naming the final files is
// written, then the .tmp files are renamed into place and the old
// segments deleted. recover() completes whichever half was interrupted:
// before the checkpoint the old segments are still authoritative (orphan
// .tmp files are discarded); after it, the survivors are (missing
// renames are promoted, manifest-absent old segments dropped).
//
// Nothing it compacts is duplicated on the way: survivors are encoded
// straight from the mirror, under the keep-mask, through one reused chunk
// buffer into one open file at a time, and the mirror is then filtered in
// place.
func (s *SegmentStore) Compact(minIngestUnix int64, maxPerAssertion int, budgets ...map[string]int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		return 0, err
	}
	// Compaction rewrites and then deletes the sealed generation; settle
	// any background seals (and surface their failures) before touching it.
	if err := s.sealBarrierLocked(); err != nil {
		return 0, err
	}

	mask, evicted := s.log.Plan(minIngestUnix, maxPerAssertion, budgets)
	if evicted == 0 {
		return 0, nil
	}

	// Write survivors into fresh segment files (numbers above every
	// existing one), respecting the roll threshold.
	newMetas, err := s.writeSurvivors(mask)
	if err != nil {
		return 0, err
	}

	// Checkpoint naming the final files commits the compaction.
	cp := segCheckpoint{
		Version:   checkpointVersion,
		AppendSeq: s.appendSeq,
		Stats:     s.stats.All(),
		Dropped:   s.dropped,
		Compacted: s.compacted + int64(evicted),
	}
	for _, m := range newMetas {
		cp.Segments = append(cp.Segments, Segment{Name: segName(m.num), Records: m.records, Bytes: m.bytes})
	}
	if err := s.writeCheckpointFile(cp); err != nil {
		return 0, err
	}

	for _, m := range newMetas {
		final := filepath.Join(s.dir, segName(m.num))
		if err := os.Rename(final+".tmp", final); err != nil {
			return 0, fmt.Errorf("store: compact rename: %w", err)
		}
	}
	if err := syncDir(s.dir); err != nil {
		return 0, err
	}

	// Retire the old generation.
	oldActive := s.active
	old := append([]segMeta{}, s.finalized...)
	old = append(old, segMeta{num: s.activeNum})
	oldActive.Close()
	for _, m := range old {
		if err := os.Remove(filepath.Join(s.dir, segName(m.num))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return 0, fmt.Errorf("store: compact cleanup: %w", err)
		}
	}

	// Adopt the new generation: the last new segment becomes active.
	last := newMetas[len(newMetas)-1]
	s.finalized = append(s.finalized[:0], newMetas[:len(newMetas)-1]...)
	if err := s.openSegment(last.num, last.records); err != nil {
		return 0, err
	}

	s.log.Compact(mask, evicted)
	s.compacted += int64(evicted)
	return evicted, nil
}

// writeSurvivors writes the mirror's entries that mask keeps into .tmp
// segment files numbered above every existing one, rolling at the segment
// threshold, and returns their metadata in order. It always emits a final
// segment, even an empty one: the store needs an active segment to append
// to. Each file is created, written in compactChunk pieces encoded into
// the reused scratch buffer, fsync'd and closed through the one handle.
func (s *SegmentStore) writeSurvivors(mask []bool) ([]segMeta, error) {
	var metas []segMeta
	meta := segMeta{num: s.activeNum + 1}
	var seg *RecordLog
	buf := s.scratch[:0]
	defer func() {
		s.scratch = buf[:0]
		if seg != nil {
			seg.Close() // an error path; the .tmp it leaves is swept by recover
		}
	}()
	// flush writes the chunk out; seal also ends the current file.
	flush := func(seal bool) error {
		var err error
		if seg == nil {
			seg = &RecordLog{Path: filepath.Join(s.dir, segName(meta.num)+".tmp"), Hdr: seqHeader}
			err = seg.Create()
		}
		if err == nil {
			err = seg.Write(buf)
		}
		meta.bytes += int64(len(buf))
		buf = buf[:0]
		if err != nil || !seal {
			return err
		}
		err = seg.Sync()
		if cerr := seg.Close(); err == nil {
			err = cerr
		}
		seg = nil
		metas = append(metas, meta)
		meta = segMeta{num: meta.num + 1}
		return err
	}
	for i, keep := range mask {
		if !keep {
			continue
		}
		var v assertion.Violation
		seq := s.log.At(i, &v)
		var err error
		if buf, err = appendRecord(buf, seq, &v); err != nil {
			return nil, fmt.Errorf("store: compact encode: %w", err)
		}
		meta.records++
		if full := meta.bytes+int64(len(buf)) >= s.segBytes; full || len(buf) >= compactChunk {
			if err := flush(full); err != nil {
				return nil, fmt.Errorf("store: compact: %w", err)
			}
		}
	}
	if err := flush(true); err != nil {
		return nil, fmt.Errorf("store: compact: %w", err)
	}
	return metas, nil
}

// Import writes a legacy snapshot into cfg.Dir as a fresh store — how a
// snapshot file migrates into a data directory. It refuses a directory
// that already holds a store, adopts the snapshot's statistics and
// eviction counters wholesale, appends its violation log as segments, and
// closes the store; Open then recovers exactly that state.
func Import(cfg Config, snap assertion.RecorderSnapshot) (err error) {
	s, err := Open(cfg)
	if err != nil {
		return err
	}
	// Close checkpoints: its AppendSeq covers every imported record, so a
	// recovery will not fold them into the adopted statistics twice.
	defer func() {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.appendSeq > 0 || len(s.stats.Names()) > 0 || s.dropped != 0 || s.compacted != 0 {
		return fmt.Errorf("store: import: %s already holds a store", s.dir)
	}
	s.stats.Set(snap.Stats)
	s.dropped = snap.LogDropped
	s.compacted = snap.Compacted
	for _, v := range snap.Violations {
		if err := s.bufferLocked(v); err != nil {
			return err
		}
		if err := s.maybeFlushRollLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Info implements ViolationStore.
func (s *SegmentStore) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	bytes := s.active.Size() + int64(len(s.pending))
	for _, m := range s.finalized {
		bytes += m.bytes
	}
	return Info{
		Backend:  segmentBackend,
		Entries:  s.log.Len(),
		Segments: len(s.finalized) + 1,
		Bytes:    bytes,
	}
}

// Close implements ViolationStore: a final checkpoint, then the active
// segment is closed. Appends after Close fail with ErrClosed; queries
// keep working from the in-memory mirror.
func (s *SegmentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.checkpointLocked()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}
