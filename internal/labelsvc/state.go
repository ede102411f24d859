package labelsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"omg/internal/bandit"
	"omg/internal/store"
)

// The state on disk is a snapshot and a log. The snapshot (Config.
// StatePath, labels.json) is a StateVersion-1 State plus the sequence
// number of the last log record it covers, written through
// store.WriteFileAtomic. The log (labels.log beside it) is a
// store.RecordLog at the SyncEach level holding one JSON stateDelta per
// mutation since, fsync'd before the call that made it returns; the
// internal/store package comment has its framing and damage rule.
// Revival loads the snapshot and replays the records it does not cover.

// stateDelta is one log record: what one mutation changed. The loop's
// scalars — selector state, round and counters — ride whole on every
// record; they are bounded, the selector state being its kind, its seed
// and at most the last round's firing counts. The sets change by lists.
// Replay drops Dropped's leases before adding Leased, Labeled and
// StreamSources, the order the mutations themselves run in.
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
// rewrites a crash interrupted, restores the snapshot and replays the log
// records it does not cover. It writes nothing else; the first persist
// after it is a snapshot.
func (s *Service) loadLocked() error {
	f := s.files
	for _, path := range []string{f.path, f.log.Path} {
		if err := store.SweepTemps(path); err != nil {
			return err
		}
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
	return f.log.Replay(false, func(_, body []byte) error {
		var d stateDelta
		if err := json.Unmarshal(body, &d); err != nil {
			return err
		}
		if d.Seq > f.seq {
			s.applyDeltaLocked(&d)
			f.seq = d.Seq
		}
		return nil
	})
}

// stateFiles writes the snapshot and the log. Its caller serialises every
// call (Service.mu); the counters are read without it.
type stateFiles struct {
	path string
	log  *store.RecordLog
	// seq is the last record's sequence number, written or attempted.
	seq uint64
	// snapBytes is the size of the last snapshot (0 before the first): a
	// record that would take the log past it is written as a fresh
	// snapshot instead, so a snapshot's cost is paid for by at least as
	// many bytes of records.
	snapBytes int64

	deltas, snapshots atomic.Int64
}

func newStateFiles(statePath string) *stateFiles {
	return &stateFiles{path: statePath, log: &store.RecordLog{Path: logPath(statePath), Level: store.SyncEach}}
}

// appendDelta writes d as the log's next record. It reports false, writing
// nothing, when a snapshot is due instead: before the first snapshot, or
// when the record would take the log past the snapshot. After a failed
// write the caller's next write must be a snapshot.
func (f *stateFiles) appendDelta(d *stateDelta) (bool, error) {
	f.seq++
	d.Seq = f.seq
	body, err := json.Marshal(d)
	if err != nil {
		return false, err
	}
	if f.log.Size()+int64(store.FrameHeader+len(body)) > f.snapBytes {
		return false, nil
	}
	if err := f.log.Append(body); err != nil {
		return false, err
	}
	f.deltas.Add(1)
	return true, nil
}

func (f *stateFiles) close() error { return f.log.Close() }

// snapshot writes st as the snapshot covering every record so far and
// then empties the log. A crash between the two leaves records the
// snapshot covers, which replay skips by sequence number.
func (f *stateFiles) snapshot(st State) error {
	raw, err := json.Marshal(snapshotFile{State: st, LogSeq: f.seq})
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := store.WriteFileAtomic(f.path, raw); err != nil {
		return err
	}
	if err := f.log.Replace(nil); err != nil {
		return err
	}
	f.snapBytes = int64(len(raw))
	f.snapshots.Add(1)
	return nil
}
