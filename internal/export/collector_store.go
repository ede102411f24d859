package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"omg/internal/assertion"
	"omg/internal/store"
)

// Store backend names for CollectorConfig.Store.
const (
	StoreMem  = "mem"
	StoreDisk = "disk"
)

// marksName is the dedup-marks write-ahead log inside DataDir: a
// store.RecordLog at the WriteOnly level, one JSON markLine per frame
// (the internal/store package comment has the framing and the damage
// rule). Each ingest appends one record carrying ABSOLUTE values — the
// source's applied high-water mark and the request counters at that
// moment — so replay (take the max of every field) is idempotent, and a
// torn tail, cut away at open, costs at most the marks of the batches it
// held: an unmarked applied batch is re-applied only if its sender
// retries it. A marks.log in the line format collectors wrote before
// (one JSON markLine per line) is read line by line and rewritten framed
// at open.
const marksName = "marks.log"

// maxMarksBytes triggers a compaction of the marks log: above it the log
// is rewritten as one record per source.
const maxMarksBytes = 1 << 20

// labelsName is the label service's state snapshot inside DataDir; its
// delta log, labels.log, sits beside it (see labelsvc.Config.StatePath).
const labelsName = "labels.json"

// markLine is one marks-log entry. Src/Seq are the dedup mark the entry
// advances ("" for pure counter updates, e.g. rejected requests);
// Batches/Dups/Rej are the collector counters at write time.
type markLine struct {
	Src     string `json:"src,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Batches int64  `json:"batches"`
	Dups    int64  `json:"dups,omitempty"`
	Rej     int64  `json:"rej,omitempty"`
}

// openShards opens one store per shard: in-memory rings splitting
// cfg.Retain between them, or — for the disk backend — a SegmentStore per
// shard-N subdirectory of DataDir plus the dedup-marks log. Every shard
// reports its evictions to the label service, the other half of what
// keeps the candidate index current (apply reports the adds).
func (c *Collector) openShards() error {
	for i := 0; i < c.cfg.Shards; i++ {
		if !c.durable() {
			st := assertion.NewMemStore(perShard(c.cfg.Retain, c.cfg.Shards))
			st.SetEvictionObserver(c.labels)
			c.shards = append(c.shards, st)
			continue
		}
		st, err := store.Open(store.Config{
			Dir:                  filepath.Join(c.cfg.DataDir, fmt.Sprintf("shard-%d", i)),
			SegmentBytes:         c.cfg.SegmentBytes,
			FailWritesAfterBytes: c.cfg.StoreFailAfterBytes,
		})
		if err != nil {
			return err
		}
		st.SetEvictionObserver(c.labels)
		c.shards = append(c.shards, st)
	}
	if c.durable() {
		return c.loadMarks()
	}
	return nil
}

// durable reports whether the collector's shards sit on disk-backed
// stores.
func (c *Collector) durable() bool { return c.cfg.Store == StoreDisk }

// closeStores closes whatever stores were opened (partial-open cleanup
// and the Close path; closing a MemStore is a no-op) and the marks log.
func (c *Collector) closeStores() error {
	var err error
	for _, st := range c.shards {
		if e := st.Close(); err == nil {
			err = e
		}
	}
	if c.marks != nil {
		if e := c.marks.Close(); err == nil {
			err = e
		}
		c.marks = nil
	}
	return err
}

// loadMarks replays the dedup-marks log into the source high-water marks
// and request counters, then opens it for appending.
func (c *Collector) loadMarks() error {
	path := filepath.Join(c.cfg.DataDir, marksName)
	c.marks = &store.RecordLog{Path: path}
	if err := store.SweepTemps(path); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("export: read marks log: %w", err)
	}
	var batches, dups, rej int64
	fold := func(body []byte) error {
		var m markLine
		if err := json.Unmarshal(body, &m); err != nil {
			return err
		}
		if m.Src != "" {
			st := c.sources[m.Src]
			if st == nil {
				st = &sourceState{}
				c.sources[m.Src] = st
			}
			if m.Seq > st.lastSeq.Load() {
				st.lastSeq.Store(m.Seq)
			}
		}
		batches, dups, rej = max(batches, m.Batches), max(dups, m.Dups), max(rej, m.Rej)
		return nil
	}
	_, framed := store.FrameAt(data, 0)
	legacy := len(data) > 0 && data[0] == '{' && !framed
	if legacy {
		// The line format has no checksum: an unparsable line, normally
		// the torn last one, is skipped.
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			fold(line)
		}
	} else if err := c.marks.Replay(false, nil, func(_, body []byte) error { return fold(body) }); err != nil {
		return err
	}
	c.batches.Store(batches)
	c.duplicates.Store(dups)
	c.rejected.Store(rej)
	if legacy {
		return c.rewriteMarksLocked()
	}
	return c.marks.Open()
}

// logMarks appends one marks-log record carrying the given dedup mark and
// the current counters. A no-op for in-memory collectors. Like segment
// appends, the record is written (not fsync'd): it survives a process
// crash the moment the write returns. A failed write or compaction
// latches the collector degraded. The batch whose mark it was is still
// acknowledged: its violations are applied, and answering 503 would have
// a healed collector apply its retry a second time.
func (c *Collector) logMarks(src string, seq uint64) {
	if c.marks == nil {
		return
	}
	body, err := json.Marshal(markLine{
		Src:     src,
		Seq:     seq,
		Batches: c.batches.Load(),
		Dups:    c.duplicates.Load(),
		Rej:     c.rejected.Load(),
	})
	if err != nil {
		return
	}
	c.marksMu.Lock()
	defer c.marksMu.Unlock()
	err = c.marks.Append(body)
	if err == nil && c.marks.Size() > maxMarksBytes {
		err = c.rewriteMarksLocked()
	}
	c.degrade(err)
}

// rewriteMarksLocked compacts the marks log to one record per source (or
// one counters record without any) through RecordLog.Replace. Called with
// marksMu held, or from loadMarks before ingest starts; source marks are
// read atomically, so no sourceState mutex is taken (lock order stays
// sourceState.mu -> marksMu). On an error the old log stays in place.
func (c *Collector) rewriteMarksLocked() error {
	c.mu.Lock()
	marks := make(map[string]uint64, len(c.sources))
	for src, st := range c.sources {
		marks[src] = st.lastSeq.Load()
	}
	c.mu.Unlock()

	counters := markLine{Batches: c.batches.Load(), Dups: c.duplicates.Load(), Rej: c.rejected.Load()}
	var frames []byte
	add := func(m markLine) {
		body, _ := json.Marshal(m)
		frames = store.AppendFrame(frames, body)
	}
	for src, seq := range marks {
		add(markLine{Src: src, Seq: seq, Batches: counters.Batches, Dups: counters.Dups, Rej: counters.Rej})
	}
	if len(marks) == 0 {
		add(counters)
	}
	return c.marks.Replace(frames)
}

// StoreInfo sums the shard stores' shapes — entries, live segments and
// on-disk bytes — for the /metrics gauges. For an in-memory collector
// the segment and byte counts are zero.
func (c *Collector) StoreInfo() store.Info {
	var total store.Info
	for _, st := range c.shards {
		info := st.Info()
		total.Backend = info.Backend
		total.Entries += info.Entries
		if info.Backend != "mem" {
			total.Segments += info.Segments
			total.Bytes += info.Bytes
		}
	}
	return total
}
