package export

import (
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

// marksName is the dedup-marks write-ahead log inside DataDir. Each
// ingest appends one self-contained JSON line carrying ABSOLUTE values —
// the source's applied high-water mark and the request counters at that
// moment — so replay (take the max of every field) is idempotent and a
// torn last line costs at most one batch's counter update, never
// correctness: an unmarked applied batch is simply re-deduplicated as a
// fresh one if the sender retries.
const marksName = "marks.log"

// maxMarksBytes triggers a compaction of the marks log: above it the log
// is rewritten as one line per source.
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
// and request counters, then reopens it for appending.
func (c *Collector) loadMarks() error {
	path := filepath.Join(c.cfg.DataDir, marksName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("export: read marks log: %w", err)
	}
	var batches, dups, rej int64
	start := 0
	for i := 0; i <= len(data); i++ {
		if i != len(data) && data[i] != '\n' {
			continue
		}
		line := data[start:i]
		start = i + 1
		if len(line) == 0 {
			continue
		}
		var m markLine
		if json.Unmarshal(line, &m) != nil {
			// A torn final line from a crash mid-append; everything before
			// it already carried absolute values.
			continue
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
		if m.Batches > batches {
			batches = m.Batches
		}
		if m.Dups > dups {
			dups = m.Dups
		}
		if m.Rej > rej {
			rej = m.Rej
		}
	}
	c.batches.Store(batches)
	c.duplicates.Store(dups)
	c.rejected.Store(rej)

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("export: open marks log: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("export: open marks log: %w", err)
	}
	c.marks = f
	c.marksBytes = fi.Size()
	return nil
}

// logMarks appends one marks-log line recording the given dedup mark and
// the current counters. A no-op for in-memory collectors. Like segment
// appends, the line is written (not fsync'd): it survives a process
// crash the moment the write returns.
func (c *Collector) logMarks(src string, seq uint64) {
	if c.marks == nil {
		return
	}
	line, err := json.Marshal(markLine{
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
	if _, err := c.marks.Write(append(line, '\n')); err != nil {
		return
	}
	c.marksBytes += int64(len(line)) + 1
	if c.marksBytes > maxMarksBytes {
		c.rewriteMarksLocked()
	}
}

// rewriteMarksLocked compacts the marks log to one line per source plus
// a counters line, atomically (write temp, rename). Called with marksMu
// held; source marks are read atomically, so no sourceState mutex is
// taken (lock order stays sourceState.mu -> marksMu). On an error the
// old log stays in place.
func (c *Collector) rewriteMarksLocked() error {
	c.mu.Lock()
	marks := make(map[string]uint64, len(c.sources))
	for src, st := range c.sources {
		marks[src] = st.lastSeq.Load()
	}
	c.mu.Unlock()

	var buf []byte
	write := func(m markLine) {
		line, err := json.Marshal(m)
		if err != nil {
			return
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	counters := markLine{Batches: c.batches.Load(), Dups: c.duplicates.Load(), Rej: c.rejected.Load()}
	for src, seq := range marks {
		write(markLine{Src: src, Seq: seq, Batches: counters.Batches, Dups: counters.Dups, Rej: counters.Rej})
	}
	if len(marks) == 0 {
		write(counters)
	}

	path := filepath.Join(c.cfg.DataDir, marksName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("export: rewrite marks log: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("export: rewrite marks log: %w", err)
	}
	// The old fd now points at the replaced (unlinked) file; switch to
	// the new one. On a reopen failure keep appending to the old fd —
	// those marks are lost to a restart, which only risks re-counting a
	// retried batch, never data loss.
	nf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("export: reopen marks log: %w", err)
	}
	c.marks.Close()
	c.marks = nf
	c.marksBytes = int64(len(buf))
	return nil
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
