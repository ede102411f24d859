package labelsvc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"omg/internal/bandit"
)

// The state on disk is a snapshot and a log. The snapshot (Config.
// StatePath, labels.json) is a StateVersion-1 State plus the sequence
// number of the last log record it covers, written temp + fsync + rename +
// directory fsync. The log (labels.log beside it) holds one record per
// mutation since: a length + CRC-32 frame around a JSON stateDelta,
// fsync'd before the call that made it returns. Revival loads the
// snapshot and replays the records it does not cover; a record a crash
// tore at the log's tail is truncated away, a damaged one anywhere before
// it refuses the open.

// stateDelta is one log record: what one mutation changed. The loop's
// scalars — selector state, round and counters — are small and ride whole
// on every record; the sets change by lists. Replay drops Dropped's leases
// before adding Leased, Labeled and StreamSources, the order the mutations
// themselves run in.
type stateDelta struct {
	Seq           uint64                    `json:"seq"`
	Selector      bandit.RoundSelectorState `json:"selector"`
	Round         int                       `json:"round"`
	Served        int64                     `json:"served"`
	Feedback      int64                     `json:"feedback"`
	ErrorsFound   int64                     `json:"errors_found"`
	Dropped       []SampleKey               `json:"dropped,omitempty"`
	Leased        []Lease                   `json:"leased,omitempty"`
	Labeled       []LabeledSample           `json:"labeled,omitempty"`
	StreamSources map[string]string         `json:"stream_sources,omitempty"`
}

// snapshotFile is the snapshot's layout: State's fields, then LogSeq. A
// snapshot without it (every one written before the log existed) covers
// no record.
type snapshotFile struct {
	State
	LogSeq uint64 `json:"log_seq,omitempty"`
}

// logPath is the log beside the snapshot at statePath: its name with
// ".json" replaced by ".log" (or ".log" appended).
func logPath(statePath string) string { return strings.TrimSuffix(statePath, ".json") + ".log" }

// dropKey is a lease's identity as a record names it.
func dropKey(k key2) SampleKey { return SampleKey{Stream: k.stream, Sample: k.sample} }

// applyDeltaLocked replays one record onto the loop's state.
func (s *Service) applyDeltaLocked(d *stateDelta) {
	s.sel.RestoreState(d.Selector)
	s.round, s.served, s.feedback, s.errorsFound = d.Round, d.Served, d.Feedback, d.ErrorsFound
	for _, k := range d.Dropped {
		delete(s.leases, k.key2())
	}
	for _, l := range d.Leased {
		s.leases[l.key2()] = l
	}
	for _, rec := range d.Labeled {
		s.labeled[rec.key2()] = rec
	}
	for stream, src := range d.StreamSources {
		s.streamSrc[stream] = src
	}
}

// loadLocked revives the persisted loop: it removes the temp files of
// snapshots a crash interrupted, restores the snapshot and replays the log
// records it does not cover. It writes nothing else; the first persist
// after it is a snapshot.
func (s *Service) loadLocked() error {
	f := s.files
	if err := sweepTemps(filepath.Dir(f.path)); err != nil {
		return err
	}
	raw, err := os.ReadFile(f.path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return fmt.Errorf("labelsvc: read state: %w", err)
	default:
		var snap snapshotFile
		if err := json.Unmarshal(raw, &snap); err != nil {
			return fmt.Errorf("labelsvc: decode state %s: %w", f.path, err)
		}
		s.restoreLocked(snap.State)
		f.seq = snap.LogSeq
	}
	return f.replay(s.applyDeltaLocked)
}

// tempPrefix and tempSuffix bracket the name of a snapshot being written.
const tempPrefix, tempSuffix = ".labels-", ".tmp"

// sweepTemps removes the snapshot temp files in dir: each one is a
// snapshot whose writer died before its rename, and nothing reads it.
func sweepTemps(dir string) error {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("labelsvc: scan state dir: %w", err)
	}
	for _, ent := range ents {
		if name := ent.Name(); strings.HasPrefix(name, tempPrefix) && strings.HasSuffix(name, tempSuffix) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("labelsvc: remove stale %s: %w", name, err)
			}
		}
	}
	return nil
}

// stateFiles writes the snapshot and the log. Its caller serialises every
// call (Service.mu); the counters are read without it.
type stateFiles struct {
	path, logPath string
	// log is the open log, opened by the first snapshot; logID is the file
	// it was opened as.
	log   *os.File
	logID os.FileInfo
	// seq is the last record's sequence number, written or attempted.
	seq uint64
	// logBytes and snapBytes are the sizes of the log and the last
	// snapshot: a record that would take the log past the snapshot is
	// written as a fresh snapshot instead, so a snapshot's cost is paid
	// for by at least as many bytes of records.
	logBytes, snapBytes int64

	deltas, snapshots atomic.Int64
}

// frameHeader is a record's header: the body's length, then its CRC-32
// (IEEE), both little-endian uint32.
const frameHeader = 8

// appendDelta writes d as the log's next record and fsyncs it. It reports
// false, writing nothing, when a snapshot is due instead: before the first
// snapshot, or when the record would take the log past the snapshot. A
// record whose write fails is cut back off the log; the caller's next
// write must then be a snapshot.
func (f *stateFiles) appendDelta(d *stateDelta) (bool, error) {
	f.seq++
	if f.log == nil {
		return false, nil
	}
	d.Seq = f.seq
	body, err := json.Marshal(d)
	if err != nil {
		return false, err
	}
	if f.logBytes+int64(frameHeader+len(body)) > f.snapBytes {
		return false, nil
	}
	frame := make([]byte, frameHeader, frameHeader+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	frame = append(frame, body...)
	_, err = f.log.Write(frame)
	if err == nil {
		err = f.log.Sync()
	}
	if err == nil {
		err = f.linked()
	}
	if err != nil {
		f.log.Truncate(f.logBytes)
		return false, err
	}
	f.logBytes += int64(len(frame))
	f.deltas.Add(1)
	return true, nil
}

// linked checks that the open log is still the file at its path. A log
// whose directory was removed under it accepts writes no restart can read.
func (f *stateFiles) linked() error {
	fi, err := os.Stat(f.logPath)
	if err != nil {
		return err
	}
	if !os.SameFile(fi, f.logID) {
		return fmt.Errorf("%s was replaced", f.logPath)
	}
	return nil
}

// snapshot writes st as the snapshot covering every record so far and
// then empties the log. The log is opened (and created) first, so the
// snapshot's directory fsync makes the log's entry durable too. A crash
// after the rename and before the truncation leaves records the snapshot
// covers, which replay skips by sequence number.
func (f *stateFiles) snapshot(st State) error {
	if f.log != nil {
		f.log.Close()
		f.log = nil
	}
	lf, err := os.OpenFile(f.logPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	id, err := lf.Stat()
	if err != nil {
		lf.Close()
		return err
	}
	f.log, f.logID = lf, id
	raw, err := json.Marshal(snapshotFile{State: st, LogSeq: f.seq})
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	dir := filepath.Dir(f.path)
	tmp, err := os.CreateTemp(dir, tempPrefix+"*"+tempSuffix)
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err = tmp.Write(raw); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, f.path)
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	if err := f.log.Truncate(0); err != nil {
		return err
	}
	f.logBytes, f.snapBytes = 0, int64(len(raw))
	f.snapshots.Add(1)
	return nil
}

func (f *stateFiles) close() error {
	if f.log == nil {
		return nil
	}
	err := f.log.Close()
	f.log = nil
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// replay applies the log's records above f.seq in order, advancing f.seq.
// A bad frame at the tail is what a crash mid-append leaves and is
// truncated away; one with more log after it is damage, and refused.
func (f *stateFiles) replay(apply func(*stateDelta)) error {
	data, err := os.ReadFile(f.logPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("labelsvc: read state log: %w", err)
	}
	for off := 0; off < len(data); {
		body, ok := frameAt(data[off:])
		if !ok {
			if !tornTail(data[off:]) {
				return fmt.Errorf("labelsvc: state log %s damaged at offset %d", f.logPath, off)
			}
			if err := os.Truncate(f.logPath, int64(off)); err != nil {
				return fmt.Errorf("labelsvc: truncate torn tail of %s: %w", f.logPath, err)
			}
			break
		}
		var d stateDelta
		if err := json.Unmarshal(body, &d); err != nil {
			return fmt.Errorf("labelsvc: state log %s record at offset %d: %w", f.logPath, off, err)
		}
		if d.Seq > f.seq {
			apply(&d)
			f.seq = d.Seq
		}
		off += frameHeader + len(body)
	}
	return nil
}

// frameAt returns the body of the record b starts with, if b holds a
// whole one whose CRC matches.
func frameAt(b []byte) ([]byte, bool) {
	if len(b) < frameHeader {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || uint64(n) > uint64(len(b)-frameHeader) {
		return nil, false
	}
	body := b[frameHeader : frameHeader+int(n)]
	return body, crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(b[4:])
}

// tornTail reports whether rest, which starts with a bad frame, is what a
// crash mid-append leaves: a frame the log ends inside of, or zeros the
// crash extended the file by and never filled.
func tornTail(rest []byte) bool {
	if len(rest) < frameHeader || frameHeader+int64(binary.LittleEndian.Uint32(rest)) >= int64(len(rest)) {
		return true
	}
	for _, b := range rest {
		if b != 0 {
			return false
		}
	}
	return true
}
