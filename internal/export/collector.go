package export

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omg/internal/assertion"
	"omg/internal/labelsvc"
	"omg/internal/obs"
	"omg/internal/store"
)

// maxIngestBytes bounds one ingest request body; larger bodies are
// answered with 413 and counted as rejected.
const maxIngestBytes = 32 << 20

// CollectorConfig shapes a Collector. The zero value is a single-shard,
// unbounded, no-retention collector — the PR-3 behaviour.
type CollectorConfig struct {
	// Retain bounds how many violations are kept in memory for queries
	// across all shards (0 = unbounded). With N shards each shard keeps
	// ceil(Retain/N), so the global bound is approximate when sources
	// are skewed. Aggregate statistics are complete regardless.
	Retain int
	// Shards is the number of independent ingest shards. Batches route
	// by Source over the same FNV-1a seam MonitorPool uses for streams
	// (assertion.ShardFor), so concurrent senders land on different
	// stores instead of contending on one mutex. 0 or 1 keeps the
	// single-shard layout.
	Shards int
	// RetainAge evicts retained violations older than this — measured
	// from collector ingest time — at each compaction (0 = no age
	// bound).
	RetainAge time.Duration
	// RetainPerAssertion keeps only the newest N retained violations
	// per assertion (0 = no cap). The cap is global: compaction ranks an
	// assertion's violations across shards and keeps the newest N
	// wherever they live, so source skew cannot under-retain.
	RetainPerAssertion int
	// CompactEvery is the retention janitor's period (default 30s).
	// The janitor only runs when RetainAge or RetainPerAssertion is
	// set; CompactNow applies the policy on demand regardless.
	CompactEvery time.Duration
	// TailBuffer bounds each live-tail client's event buffer (default
	// 256). A slow client overflows its own buffer and the overflow is
	// dropped and counted — ingest never stalls on a tail consumer.
	TailBuffer int
	// Store selects the violation storage backend: "" or "mem" keeps the
	// in-memory rings, which end with the process; "disk" puts every shard
	// on an on-disk store.SegmentStore under DataDir, making violations,
	// statistics and dedup marks survive a crash exactly.
	Store string
	// DataDir is the disk backend's data directory (required when Store
	// is "disk"): shard-N subdirectories hold each shard's segments, and
	// marks.log holds the dedup/counter write-ahead log.
	DataDir string
	// SegmentBytes is the disk backend's segment roll threshold
	// (0 = store.DefaultSegmentBytes). Ignored by the in-memory backend,
	// as is Retain by the disk one (its log is bounded by the retention
	// policy, not a ring size).
	SegmentBytes int64
	// Labels tunes the collector-hosted label-selection service (selector
	// kind, seed, lease TTL, batch budgets). The zero value runs the BAL
	// loop with defaults. For a disk-backed collector, Labels.StatePath
	// defaults to DataDir/labels.json (with its log, labels.log) so the loop
	// survives kill -9.
	Labels labelsvc.Config
	// AcceptWire limits which wire codecs ingest accepts, by codec name
	// ("json", "binary"). Empty accepts both. A request whose
	// Content-Type maps to no accepted codec is answered 415 with a JSON
	// body listing the accepted content types, which is what lets an
	// HTTPSink fall back to JSON against a JSON-only collector. An unknown
	// name is an OpenCollector error.
	AcceptWire []string
	// StoreFailAfterBytes injects a deterministic disk-full fault into
	// the disk store backend for chaos testing: once each shard has
	// written this many segment bytes, further writes fail with
	// store.ErrDiskFull and the collector latches degraded. 0 disables.
	StoreFailAfterBytes int64
}

// Collector is the ingest side of networked monitoring: it applies wire
// batches from any number of edge monitors and serves aggregate and
// per-violation queries over HTTP. Ingest is sharded by batch source
// (CollectorConfig.Shards), so concurrent senders append to independent
// stores; every read path — Summary, Violations, the query endpoint —
// presents the merged view. It deduplicates retried batches by (source,
// seq) — the receiver half of the exactly-once contract HTTPSink's
// sequence numbers set up. Its state is durable in exactly one way: a
// disk collector's data directory (shard segments, the dedup-marks log,
// the label state's snapshot and log) recovers it after a restart or a crash; a mem
// collector's state lives and dies with the process. A retention policy
// (RetainAge, RetainPerAssertion) ages out the queryable log without
// touching the aggregate counts, and a live-tail hub streams ingested
// violations to SSE subscribers. It is safe for concurrent use; Close
// stops the retention janitor, ends tail streams and settles the attached
// sink.
type Collector struct {
	cfg CollectorConfig
	// shards holds one store per ingest shard, routed by batch source:
	// MemStores, or SegmentStores under DataDir for the disk backend.
	shards []assertion.ViolationStore

	mu      sync.Mutex
	sources map[string]*sourceState

	tail   *tailHub
	labels *labelsvc.Service
	// seedMu makes the label index's seed atomic against every writer of
	// the retained log: apply (through its ObserveBatch) and CompactNow
	// hold it shared, the seed — one read of every shard, once per process
	// unless a store failure drops the index — holds it exclusively
	// (labelSeed.LockSeed).
	seedMu sync.RWMutex

	// closing flips when shutdown begins (Quiesce/Close): /healthz
	// answers 503 from then on so load balancers drain the instance
	// before the listener goes away.
	closing atomic.Bool

	// Admission state: the ingest-request count behind the
	// omg_collector_ingest_inflight gauge, and the latched degraded flag
	// a failed store write flips — see admission.go.
	inflight     atomic.Int64
	degraded     atomic.Bool
	degradeMu    sync.Mutex
	degradeCause error

	batches    atomic.Int64
	duplicates atomic.Int64
	ingested   atomic.Int64
	rejected   atomic.Int64 // malformed, oversized or version-mismatched requests
	// rejectedBy splits rejected by cause for the labeled metric. Only
	// the total persists in the marks log, so after a restart the
	// by-reason counters restart from zero and may sum below the total.
	rejectedBy [numRejectReasons]atomic.Int64

	// accepts is the set of codec names ingest takes, per
	// CollectorConfig.AcceptWire; acceptCTs is their sorted content types
	// for 415 bodies. Both are fixed at construction.
	accepts   map[string]bool
	acceptCTs []string

	// sink is the attached -log tee (nil without one); logRefused counts
	// the violations it refused at Record time.
	sinkMu     sync.Mutex
	sink       assertion.Sink
	logRefused atomic.Int64

	// The disk backend's dedup-marks write-ahead log (nil for in-memory
	// collectors).
	marks   *store.RecordLog
	marksMu sync.Mutex

	quiesceOnce sync.Once
	closeOnce   sync.Once
	stop        chan struct{}
	janitor     sync.WaitGroup
}

// sourceState serialises one sender's batches. Its mutex is held across
// the whole apply, so the high-water mark only ever covers fully recorded
// batches: a retry arriving while the original is still being applied
// (the sender timed out mid-apply) blocks here and is acknowledged as a
// duplicate only after the original's violations have all landed.
type sourceState struct {
	mu      sync.Mutex
	lastSeq atomic.Uint64 // high-water mark of fully applied batches
}

// OpenCollector returns a collector shaped by cfg — the only constructor.
// With Store "" / "mem" every shard is an in-memory ring; with "disk" each
// shard is a store.SegmentStore in its own shard-N subdirectory of
// DataDir, beside a dedup-marks log and the label state files, which
// together recover the collector's exact state — violations, statistics,
// dedup high-water marks, request counters, the label loop — after a
// crash. A configuration the collector cannot honour (unknown Store, disk
// without DataDir, unknown AcceptWire codec or label selector, unreadable
// label state) is an error on either backend. Call Close when done.
//
// Restarting with a different Shards count over the same DataDir is not
// supported: each shard owns its subdirectory.
func OpenCollector(cfg CollectorConfig) (*Collector, error) {
	switch cfg.Store {
	case "", StoreMem:
	case StoreDisk:
		if cfg.DataDir == "" {
			return nil, errors.New("export: the disk store backend requires DataDir")
		}
	default:
		return nil, fmt.Errorf("export: unknown store backend %q (want %q or %q)", cfg.Store, StoreMem, StoreDisk)
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Retain < 0 {
		cfg.Retain = 0
	}
	if cfg.TailBuffer <= 0 {
		cfg.TailBuffer = 256
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 30 * time.Second
	}
	c := &Collector{
		cfg:     cfg,
		sources: make(map[string]*sourceState),
		tail:    newTailHub(cfg.TailBuffer),
		stop:    make(chan struct{}),
	}
	names := cfg.AcceptWire
	if len(names) == 0 {
		names = CodecNames()
	}
	c.accepts = make(map[string]bool, len(names))
	for _, name := range names {
		codec, err := Codec(name)
		if err != nil {
			// A typo'd -wire-accept fails loudly instead of silently
			// narrowing ingest.
			return nil, err
		}
		if !c.accepts[codec.Name()] {
			c.accepts[codec.Name()] = true
			c.acceptCTs = append(c.acceptCTs, codec.ContentType())
		}
	}
	sort.Strings(c.acceptCTs)

	labelsCfg := cfg.Labels
	if c.durable() && labelsCfg.StatePath == "" {
		// The label loop's state files live beside the shards so selector
		// state, leases and labels recover with the violations they rank.
		labelsCfg.StatePath = filepath.Join(cfg.DataDir, labelsName)
	}
	// The label service comes first because the shards report their
	// evictions to it; it reads nothing from them until someone asks for
	// labels.
	labels, err := labelsvc.New(labelSeed{c}, labelsCfg)
	if err != nil {
		return nil, err
	}
	c.labels = labels
	if err := c.openShards(); err != nil {
		c.closeStores()
		return nil, err
	}
	c.ingested.Store(int64(c.TotalFired()))
	if cfg.RetainAge > 0 || cfg.RetainPerAssertion > 0 {
		c.janitor.Add(1)
		go c.runJanitor()
	}
	return c, nil
}

// perShard splits a global bound across shards, rounding up so the
// per-shard bounds never sum below the global one. 0 stays unbounded.
func perShard(n, shards int) int {
	if n <= 0 {
		return 0
	}
	return (n + shards - 1) / shards
}

func (c *Collector) sourceState(source string) *sourceState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.sources[source]
	if !ok {
		st = &sourceState{}
		c.sources[source] = st
	}
	return st
}

// NumShards returns the number of ingest shards.
func (c *Collector) NumShards() int { return len(c.shards) }

// AttachSink tees every ingested violation into s — e.g. a durable JSONL
// log beside the queryable state. The collector takes ownership: Close
// flushes and closes it.
func (c *Collector) AttachSink(s assertion.Sink) {
	c.sinkMu.Lock()
	c.sink = s
	c.sinkMu.Unlock()
}

// logSink returns the attached tee, if any.
func (c *Collector) logSink() assertion.Sink {
	c.sinkMu.Lock()
	defer c.sinkMu.Unlock()
	return c.sink
}

// LogTeeDropped returns how many ingested violations the attached tee has
// lost: the sink's own drop count (write errors, bounded backends) plus
// the violations it refused at Record time — an ingest racing or
// following Close included, since the closed sink stays attached.
func (c *Collector) LogTeeDropped() int64 {
	n := c.logRefused.Load()
	if dc, ok := c.logSink().(assertion.DropCounter); ok {
		n += dc.Dropped()
	}
	return n
}

// Quiesce stops the retention janitor and ends live-tail streams, but
// leaves the attached sink in place. It is the shutdown half that must
// run before http.Server.Shutdown — tail streams never end on their own,
// so Shutdown would otherwise wait out its whole deadline on them —
// while the sink stays attached so ingests still in flight during the
// drain keep reaching the durable log. Idempotent; Close calls it.
func (c *Collector) Quiesce() {
	c.closing.Store(true)
	c.quiesceOnce.Do(func() {
		close(c.stop)
		c.janitor.Wait()
		c.tail.close()
	})
}

// Close quiesces the collector (janitor, tail streams), flushes and
// closes the attached sink (if any), and — for a disk-backed collector —
// checkpoints and closes the shard stores and the marks log, returning
// the first error. An in-memory collector remains usable for ingest and
// queries afterwards (only the background machinery stops); a
// disk-backed one refuses further ingest, though queries keep answering
// from memory. Close is idempotent.
func (c *Collector) Close() error {
	c.Quiesce()
	var err error
	c.closeOnce.Do(func() {
		if s := c.logSink(); s != nil {
			err = s.Close()
		}
		if e := c.labels.Close(); err == nil {
			err = e
		}
		if e := c.closeStores(); err == nil {
			err = e
		}
	})
	return err
}

// Ingest applies one batch. A batch whose (source, seq) is at or below
// the source's applied high-water mark is a retry of something already
// applied: it is counted and skipped, keeping ingestion exactly-once.
// Batches from one source apply serially (each sender has a single
// shipper anyway), and the mark advances only after the batch has fully
// landed, so a duplicate acknowledgement never races the apply it
// duplicates. Batches without a source or seq (hand-rolled clients) are
// applied unconditionally. It returns how many violations were applied
// and whether the batch was a duplicate.
func (c *Collector) Ingest(b Batch) (accepted int, duplicate bool) {
	accepted, duplicate, _ = c.ingestChecked(b)
	return accepted, duplicate
}

// ingestChecked is Ingest plus the store's verdict: a non-nil error means
// the shard store refused a violation or failed to flush the batch (the
// collector just latched degraded), and — critically — the source's
// dedup mark was not advanced. The HTTP path answers 503 then, so the
// sender retries the same sequence number and a healed (restarted)
// collector applies it durably exactly once. Acking it instead would
// trade that retry for silent loss: whatever the store did keep lives in
// a memory mirror and a pending buffer that die with the degraded
// process.
func (c *Collector) ingestChecked(b Batch) (accepted int, duplicate bool, err error) {
	if b.Source == "" || b.Seq == 0 {
		n, err := c.apply(b)
		c.logMarks("", 0) // counters still persist for unmarked batches
		return n, false, err
	}
	st := c.sourceState(b.Source)
	st.mu.Lock()
	defer st.mu.Unlock()
	if b.Seq <= st.lastSeq.Load() {
		c.duplicates.Add(1)
		c.logMarks(b.Source, st.lastSeq.Load())
		return 0, true, nil
	}
	accepted, err = c.apply(b)
	if err != nil {
		return accepted, false, err
	}
	st.lastSeq.Store(b.Seq)
	// The mark is logged only after the batch is fully applied AND (for
	// disk-backed shards) synced: a crash between apply and mark leaves
	// the violations durable and the mark unset, so a sender retry is
	// re-counted — never lost, and only double-applied if the sender
	// actually retries across the crash.
	c.logMarks(b.Source, b.Seq)
	return accepted, false, nil
}

// apply appends a batch's violations to its source's shard store, stamps
// their ingest time (the retention clock), tees them to the attached sink,
// publishes them to tail subscribers and updates the counters. It returns
// how many violations the store took and the store's first failure, which
// latches the collector degraded: a refused Append ends the batch there,
// and a failed Sync leaves all of it in the memory mirror but not durable.
func (c *Collector) apply(b Batch) (int, error) {
	c.seedMu.RLock()
	defer c.seedMu.RUnlock()
	st := c.shards[assertion.ShardFor(b.Source, len(c.shards))]
	sink := c.logSink()
	now := time.Now()
	nowUnix := now.Unix()
	nowNano := now.UnixNano()
	// The per-source age child is resolved at most once per batch, off
	// the per-violation loop.
	var age *obs.Histogram
	applied := 0
	var err error
	for _, v := range b.Violations {
		if v.ObservedUnixNano > 0 {
			if age == nil {
				age = e2eAgeHist.With(b.Source)
			}
			// Record clamps a negative age (edge clock ahead of ours) to 0.
			age.Record(time.Duration(nowNano - v.ObservedUnixNano))
		}
		v.IngestUnix = nowUnix
		if err = st.Append(v); err != nil {
			break
		}
		applied++
		if sink != nil && sink.Record(v) != nil {
			c.logRefused.Add(1)
		}
		c.tail.publish(v)
		c.publishWeakLabel(v)
	}
	if err == nil {
		// For a disk shard, one write syscall flushes the whole batch to
		// the OS: after the acknowledgement, these violations survive a
		// process crash.
		err = st.Sync()
	}
	// A store failure (a violation it cannot encode, ENOSPC, a dying disk)
	// latches the collector degraded — this batch is then rejected (not
	// acked, not marked applied), because whatever of it the store holds
	// lives only in the memory mirror and a pending buffer the degraded
	// process takes to its grave; the sender's retry re-delivers it to a
	// healed collector — and every later ingest is rejected with reason
	// "store_degraded" up front.
	c.degrade(err)
	if err != nil {
		// The store may hold part of what it refused (a disk shard's
		// memory mirror does); the label index re-reads it rather than
		// guess.
		c.labels.ObserveReplaced()
	}
	// The label service learns about the batch only after every violation
	// has landed on the shard (and, for disk shards, synced): its
	// stream→source bindings then persist before the sender sees the ack,
	// so a post-crash revival knows every acked stream's source. The
	// violations themselves are only queued for the candidate index, so
	// this does not wait on a label pull unless the batch binds a stream.
	c.labels.ObserveBatch(b.Source, b.Violations[:applied])
	c.batches.Add(1)
	c.ingested.Add(int64(applied))
	return applied, err
}

// runJanitor applies the retention policy on a timer until Close.
func (c *Collector) runJanitor() {
	defer c.janitor.Done()
	t := time.NewTicker(c.cfg.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.CompactNow()
		}
	}
}

// CompactNow applies the retention policy once across every shard and
// returns how many violations it evicted. It is what the janitor runs on
// its timer; tests and operators can call it directly. A disk shard that
// fails the rewrite latches the collector degraded, like any other failed
// store write.
func (c *Collector) CompactNow() int {
	c.seedMu.RLock()
	defer c.seedMu.RUnlock()
	total := 0
	if c.cfg.RetainAge > 0 {
		cutoff := time.Now().Add(-c.cfg.RetainAge).Unix()
		for _, st := range c.shards {
			total += c.evicted(st.Compact(cutoff, 0))
		}
	}
	if maxPer := c.cfg.RetainPerAssertion; maxPer > 0 {
		if len(c.shards) == 1 {
			total += c.evicted(c.shards[0].Compact(0, maxPer))
		} else {
			total += c.compactPerAssertion(maxPer)
		}
	}
	return total
}

// evicted passes a shard compaction's count through and latches the
// collector degraded on its error.
func (c *Collector) evicted(n int, err error) int {
	c.degrade(err)
	return n
}

// compactPerAssertion enforces the per-assertion cap globally across
// shards: shards are keyed by batch source, so one assertion's
// violations may concentrate on any shard, and dividing the cap per
// shard would under-retain skewed fleets. Instead the collector plans:
// it ranks each over-cap assertion's retained violations newest-first
// across all shards (by ingest time; within a shard, arrival order
// breaks ties) and hands every shard a budget — how many of the global
// newest N live there — which Compact then enforces locally. The ranking
// needs only each shard's ingest stamps, which IngestRuns hands over
// run-length encoded: the plan reads a few entries per assertion per
// second of retained log, never the log.
// Ingest racing the plan can only add violations newer than everything
// planned, so a racing shard at worst evicts the oldest planned
// survivor, never a newer violation in favour of an older one.
func (c *Collector) compactPerAssertion(maxPer int) int {
	type run struct {
		shard int
		assertion.IngestRun
	}
	perAssertion := make(map[string][]run)
	retained := make(map[string]int)
	for si, st := range c.shards {
		for name, runs := range st.IngestRuns() { // oldest -> newest
			for i := len(runs) - 1; i >= 0; i-- {
				perAssertion[name] = append(perAssertion[name], run{si, runs[i]})
				retained[name] += runs[i].N
			}
		}
	}
	budgets := make([]map[string]int, len(c.shards))
	for name, runs := range perAssertion {
		if retained[name] <= maxPer {
			continue // under the cap: no budget, untouched
		}
		// Newest first; the per-shard runs were appended newest-first, so
		// stability keeps arrival order among same-second ties.
		sort.SliceStable(runs, func(i, j int) bool { return runs[i].Unix > runs[j].Unix })
		for si := range c.shards {
			if budgets[si] == nil {
				budgets[si] = make(map[string]int)
			}
			budgets[si][name] = 0 // a shard with none of the newest N keeps none
		}
		for left := maxPer; left > 0; runs = runs[1:] {
			n := min(runs[0].N, left)
			budgets[runs[0].shard][name] += n
			left -= n
		}
	}
	total := 0
	for si, st := range c.shards {
		if len(budgets[si]) > 0 {
			total += c.evicted(st.Compact(0, 0, budgets[si]))
		}
	}
	return total
}

// RetentionEvicted returns how many violations the retention policy has
// evicted from the queryable log over the collector's lifetime (including
// evictions imported from a legacy snapshot).
func (c *Collector) RetentionEvicted() int64 {
	var n int64
	for _, st := range c.shards {
		n += st.Compacted()
	}
	return n
}

// TotalFired returns the total number of violations ingested, summed
// across shards. It is complete regardless of retention and log bounds.
func (c *Collector) TotalFired() int {
	total := 0
	for _, st := range c.shards {
		total += st.TotalFired()
	}
	return total
}

// Summary returns per-assertion firing counts merged across shards.
func (c *Collector) Summary() map[string]int {
	out := make(map[string]int)
	for _, st := range c.shards {
		for name, stats := range st.StatsAll() {
			out[name] += stats.Fired
		}
	}
	return out
}

// Query returns the retained violations matching q across every shard —
// the one read path behind Violations, ByAssertion and the query
// endpoint. With one shard the answer is in arrival order and q.Limit
// keeps the last to arrive. Across shards no global arrival order
// exists: the answer is ordered by Time, then Stream, then SampleIndex
// (ties by shard, then arrival), q.Limit keeps the newest in that order,
// and each shard hands over only its own newest q.Limit (q.ByKey) — so a
// limited query merges at most Limit violations per shard, never the
// retained log.
func (c *Collector) Query(q assertion.StoreQuery) []assertion.Violation {
	if len(c.shards) == 1 {
		return c.shards[0].Query(q)
	}
	q.ByKey = true
	var out []assertion.Violation
	for _, st := range c.shards {
		out = append(out, st.Query(q)...)
	}
	assertion.SortViolations(out)
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

// Violations returns the retained violations of every shard, in Query's
// order.
func (c *Collector) Violations() []assertion.Violation {
	return c.Query(assertion.StoreQuery{})
}

// ByAssertion returns retained violations of the named assertion, in
// Query's order.
func (c *Collector) ByAssertion(name string) []assertion.Violation {
	return c.Query(assertion.StoreQuery{Assertion: name})
}

// LogDropped returns how many retained violations the bounded in-memory
// logs have evicted (overflow, not retention), summed across shards.
func (c *Collector) LogDropped() int {
	n := 0
	for _, st := range c.shards {
		n += int(st.Dropped())
	}
	return n
}

// redistribute replaces the shards' contents with a merged snapshot in
// this collector's shard shape: violations re-route by stream key
// (sources are not recorded per violation), statistics and eviction
// counters land on shard 0 — the merged read views are identical either
// way. It must not be called concurrently with Ingest.
func (c *Collector) redistribute(m assertion.RecorderSnapshot) error {
	parts := make([]assertion.RecorderSnapshot, len(c.shards))
	parts[0].Stats = m.Stats
	parts[0].LogDropped = m.LogDropped
	parts[0].Compacted = m.Compacted
	for _, v := range m.Violations {
		i := assertion.ShardFor(v.Stream, len(c.shards))
		parts[i].Violations = append(parts[i].Violations, v)
	}
	for i, st := range c.shards {
		if err := st.Replace(parts[i]); err != nil {
			return err
		}
	}
	return nil
}

// SummaryResponse is the JSON body of GET /v1/summary.
type SummaryResponse struct {
	Version          int            `json:"version"`
	TotalFired       int            `json:"total_fired"`
	Assertions       map[string]int `json:"assertions"`
	Batches          int64          `json:"batches"`
	DuplicateBatches int64          `json:"duplicate_batches"`
	Rejected         int64          `json:"rejected"`
	Sources          int            `json:"sources"`
	Shards           int            `json:"shards"`
	LogDropped       int            `json:"log_dropped"`
	RetentionEvicted int64          `json:"retention_evicted"`
	// Store names the storage backend when it is not the in-memory
	// default (omitted for "mem", so the pre-seam response shape is
	// unchanged).
	Store string `json:"store,omitempty"`
}

// IngestResponse is the JSON body of POST /v1/violations.
type IngestResponse struct {
	Accepted  int  `json:"accepted"`
	Duplicate bool `json:"duplicate"`
}

// QueryResponse is the JSON body of GET /v1/violations/query.
type QueryResponse struct {
	Count      int                   `json:"count"`
	Violations []assertion.Violation `json:"violations"`
}

// Handler returns the collector's HTTP API:
//
//	POST /v1/violations        ingest one wire batch
//	GET  /v1/summary           per-assertion firing counts + totals
//	GET  /v1/violations/query  retained violations, ?assertion= ?stream= ?limit=
//	GET  /v1/violations/tail   SSE live tail, ?assertion= ?stream=
//	GET  /v1/labels/next       lease the next labeling batch, ?budget= ?puller=
//	POST /v1/labels/feedback   post labels, release leases, reward the selector
//	GET  /v1/labels/stats      label loop summary
//	GET  /healthz              liveness (503 once shutdown has begun)
//	GET  /metrics              Prometheus text format
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+IngestPath, c.handleIngest)
	mux.HandleFunc("GET /v1/summary", c.handleSummary)
	mux.HandleFunc("GET /v1/violations/query", c.handleQuery)
	mux.HandleFunc("GET "+TailPath, c.handleTail)
	mux.HandleFunc("GET "+LabelsNextPath, c.handleLabelsNext)
	mux.HandleFunc("POST "+LabelsFeedbackPath, c.handleLabelsFeedback)
	mux.HandleFunc("GET "+LabelsStatsPath, c.handleLabelsStats)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

// handleHealthz reports liveness — and, once shutdown has begun, reports
// 503 so load balancers stop routing to an instance that is draining.
// Before this fix the endpoint answered 200 to the very end, so a
// balancer could send a request straight into the closing listener.
func (c *Collector) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if c.closing.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "shutting down")
		return
	}
	if err := c.DegradedCause(); err != nil {
		// The latched disk-fault state: the instance still answers
		// queries from memory, but ingest is rejecting, so it must fall
		// out of load-balancer rotation.
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "store degraded: %v\n", err)
		return
	}
	fmt.Fprintln(w, "ok")
}

// rejectReason is the cause bucket for one rejected ingest request,
// labeling omg_collector_ingest_rejected_total.
type rejectReason int

const (
	rejectOversize rejectReason = iota
	rejectDecode
	rejectVersion
	rejectContentType
	rejectStoreDegraded
	numRejectReasons
)

var rejectReasonNames = [numRejectReasons]string{
	"oversize", "decode", "version", "content_type", "store_degraded",
}

// rejectIngest bumps both the persisted total and the by-reason counter
// and journals the total like every other request counter.
func (c *Collector) rejectIngest(reason rejectReason) {
	c.rejected.Add(1)
	c.rejectedBy[reason].Add(1)
	c.logMarks("", 0) // the rejected counter persists like the others
}

// UnsupportedMediaTypeResponse is the parseable 415 body: it names the
// content types this collector's ingest accepts, so a capable sender can
// renegotiate (HTTPSink re-encodes the same batch, same seq, as JSON).
type UnsupportedMediaTypeResponse struct {
	Error                string   `json:"error"`
	AcceptedContentTypes []string `json:"accepted_content_types"`
}

// ingestBodyPool recycles ingest request-body buffers: one pooled read
// per request, which every codec then decodes in place.
var ingestBodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// appendReadAll reads r to EOF into buf (appending), growing it like
// bytes.Buffer but keeping the capacity with the caller's pool.
func appendReadAll(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// codecFor resolves a request Content-Type to its codec and then checks
// it against this collector's accepted codecs. The empty header means
// JSON — that's what pre-codec senders posted — but still only matches
// when JSON is accepted.
func (c *Collector) codecFor(ct string) (BatchCodec, bool) {
	codec, ok := CodecForContentType(ct)
	if !ok || !c.accepts[codec.Name()] {
		return nil, false
	}
	return codec, true
}

func (c *Collector) handleIngest(w http.ResponseWriter, r *http.Request) {
	// An already-applied retry is acknowledged before anything else, from
	// the (source, seq) request headers alone — no body read. The degraded
	// latch must never wedge a sender's dedup window: the retry it rejects
	// would otherwise be retried until its deadline (and counted dropped)
	// for a batch the collector already owns.
	if c.ackAppliedRetry(w, r) {
		return
	}
	admStart := admissionHist.StartIf(true)
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	if err := c.DegradedCause(); err != nil {
		c.rejectDegraded(w, err)
		return
	}
	admissionHist.Done(admStart)
	codec, ok := c.codecFor(r.Header.Get("Content-Type"))
	if !ok {
		c.rejectIngest(rejectContentType)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnsupportedMediaType)
		json.NewEncoder(w).Encode(UnsupportedMediaTypeResponse{
			Error:                fmt.Sprintf("unsupported Content-Type %q", r.Header.Get("Content-Type")),
			AcceptedContentTypes: c.acceptCTs,
		})
		return
	}
	bufp := ingestBodyPool.Get().(*[]byte)
	defer func() {
		*bufp = (*bufp)[:0]
		ingestBodyPool.Put(bufp)
	}()
	data, err := appendReadAll((*bufp)[:0], http.MaxBytesReader(w, r.Body, maxIngestBytes))
	*bufp = data // keep the grown capacity pooled, success or not
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// The body blew the ingest bound: the payload can never be
			// parsed, and the sender must not retry the same bytes.
			c.rejectIngest(rejectOversize)
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		c.rejectIngest(rejectDecode)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hist := ingestDecodeHist.With(codec.Name())
	start := hist.StartIf(true)
	b, err := codec.DecodeBatch(data)
	hist.Done(start)
	if err != nil {
		if errors.Is(err, ErrWireVersion) {
			c.rejectIngest(rejectVersion)
		} else {
			c.rejectIngest(rejectDecode)
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	start = ingestApplyHist.StartIf(true)
	accepted, duplicate, applyErr := c.ingestChecked(b)
	ingestApplyHist.Done(start)
	if applyErr != nil {
		// This batch tripped the store fault: nothing durable, mark not
		// advanced. Reject it so the sender's retry re-delivers the same
		// sequence number to a healed collector.
		c.rejectDegraded(w, applyErr)
		return
	}
	writeJSON(w, IngestResponse{Accepted: accepted, Duplicate: duplicate})
}

func (c *Collector) handleSummary(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	sources := len(c.sources)
	c.mu.Unlock()
	resp := SummaryResponse{
		Version:          WireVersion,
		TotalFired:       c.TotalFired(),
		Assertions:       c.Summary(),
		Batches:          c.batches.Load(),
		DuplicateBatches: c.duplicates.Load(),
		Rejected:         c.rejected.Load(),
		Sources:          sources,
		Shards:           len(c.shards),
		LogDropped:       c.LogDropped(),
		RetentionEvicted: c.RetentionEvicted(),
	}
	if c.durable() {
		resp.Store = StoreDisk
	}
	writeJSON(w, resp)
}

func (c *Collector) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := queryHist.StartIf(true)
	defer queryHist.Done(start)
	params := r.URL.Query()
	q := assertion.StoreQuery{Assertion: params.Get("assertion"), Stream: params.Get("stream")}
	if raw := params.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad limit %q", raw), http.StatusBadRequest)
			return
		}
		q.Limit = n
	}
	writeQueryResponse(w, c.Query(q))
}

// queryBodyPool recycles query response buffers.
var queryBodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 32<<10); return &b }}

// maxPooledQueryBody keeps an unlimited query's tens of megabytes from
// living on in the pool after the one response that needed them.
const maxPooledQueryBody = 1 << 20

// writeQueryResponse writes a QueryResponse body, byte for byte what
// encoding/json writes for it (an empty answer is [], never null), with
// the reflection-free violation encoder into a pooled buffer.
func writeQueryResponse(w http.ResponseWriter, vs []assertion.Violation) {
	if vs == nil {
		vs = []assertion.Violation{}
	}
	bufp := queryBodyPool.Get().(*[]byte)
	buf := append((*bufp)[:0], `{"count":`...)
	buf = strconv.AppendInt(buf, int64(len(vs)), 10)
	buf = append(buf, `,"violations":`...)
	buf, err := assertion.AppendViolationsJSON(buf, vs)
	if err != nil {
		// A NaN or infinite Time/Severity, which no JSON ingest can deliver.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	} else {
		buf = append(buf, "}\n"...)
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
	}
	if cap(buf) <= maxPooledQueryBody {
		*bufp = buf
		queryBodyPool.Put(bufp)
	}
}

// handleMetrics renders the collector's counters in the Prometheus text
// exposition format, hand-rolled so the repository stays dependency-free.
func (c *Collector) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	counter := func(name, help string, value int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, value)
	}
	gauge := func(name, help string, value int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, value)
	}
	counter("omg_collector_violations_total", "Violations ingested.", c.ingested.Load())
	counter("omg_collector_batches_total", "Batches applied.", c.batches.Load())
	counter("omg_collector_duplicate_batches_total", "Retried batches deduplicated.", c.duplicates.Load())
	counter("omg_collector_rejected_requests_total", "Malformed, oversized or version-mismatched ingest requests.", c.rejected.Load())
	fmt.Fprintf(&b, "# HELP omg_collector_ingest_rejected_total Rejected ingest requests by cause (by-reason counts reset on restart; the unlabeled total persists).\n")
	fmt.Fprintf(&b, "# TYPE omg_collector_ingest_rejected_total counter\n")
	for i, reason := range rejectReasonNames {
		fmt.Fprintf(&b, "omg_collector_ingest_rejected_total{reason=\"%s\"} %d\n", reason, c.rejectedBy[i].Load())
	}
	counter("omg_collector_retention_evictions_total", "Violations evicted from the queryable log by the retention policy.", c.RetentionEvicted())
	counter("omg_collector_tail_dropped_total", "Tail events dropped because a subscriber's buffer was full.", c.tail.droppedTotal())
	counter("omg_collector_log_dropped_total", "Ingested violations the attached -log sink refused or dropped.", c.LogTeeDropped())
	gauge("omg_collector_tail_clients", "Connected live-tail subscribers.", c.tail.clientCount())
	gauge("omg_collector_shards", "Ingest shards.", int64(len(c.shards)))
	degraded := int64(0)
	if c.degraded.Load() {
		degraded = 1
	}
	gauge("omg_collector_store_degraded", "1 once a disk-store write has failed and ingest is rejecting (latched until restart).", degraded)
	gauge("omg_collector_ingest_inflight", "Ingest requests currently being admitted or applied.", c.inflight.Load())
	info := c.StoreInfo()
	gauge("omg_collector_segments", "Live segment files in the violation store (0 for the in-memory backend).", int64(info.Segments))
	gauge("omg_collector_segments_bytes", "Bytes held in violation store segment files (0 for the in-memory backend).", info.Bytes)
	served, feedback, errorsFound := c.labels.Counters()
	counter("omg_collector_labels_served_total", "Label candidates served to pullers.", served)
	counter("omg_collector_labels_feedback_total", "Labels posted back by pullers.", feedback)
	counter("omg_collector_labels_errors_found_total", "Posted labels that confirmed a real model error.", errorsFound)
	gauge("omg_collector_labels_leases", "Unexpired label leases.", int64(c.labels.ActiveLeases()))
	gauge("omg_collector_labels_round", "Completed label selection rounds.", int64(c.labels.Round()))
	index := c.labels.IndexStats()
	gauge("omg_collector_labels_candidates", "Candidates in the live label index (0 until a label call seeds it).", int64(index.Candidates))
	fmt.Fprintf(&b, "# HELP omg_collector_labels_index_events_total Deltas queued for the label index: ingested adds and store evictions.\n")
	fmt.Fprintf(&b, "# TYPE omg_collector_labels_index_events_total counter\n")
	fmt.Fprintf(&b, "omg_collector_labels_index_events_total{kind=\"add\"} %d\n", index.Adds)
	fmt.Fprintf(&b, "omg_collector_labels_index_events_total{kind=\"evict\"} %d\n", index.Evictions)
	counter("omg_collector_labels_seeds_total", "Times the label index was built from the retained log (first label call, and after a store failure or a feed overflow).", index.Seeds)
	counter("omg_collector_labels_state_write_errors_total", "Failed writes of the label state files.", index.StateWriteErrors)
	fmt.Fprintf(&b, "# HELP omg_collector_labels_state_writes_total Durable writes of the label state: a log record per mutation, a snapshot when the log outgrows the last one.\n")
	fmt.Fprintf(&b, "# TYPE omg_collector_labels_state_writes_total counter\n")
	fmt.Fprintf(&b, "omg_collector_labels_state_writes_total{kind=\"delta\"} %d\n", index.StateDeltas)
	fmt.Fprintf(&b, "omg_collector_labels_state_writes_total{kind=\"snapshot\"} %d\n", index.StateSnapshots)

	summary := c.Summary()
	names := make([]string, 0, len(summary))
	for name := range summary {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "# HELP omg_collector_assertion_fired_total Violations ingested per assertion.\n")
	fmt.Fprintf(&b, "# TYPE omg_collector_assertion_fired_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "omg_collector_assertion_fired_total{assertion=\"%s\"} %d\n", escapeLabel(name), summary[name])
	}
	// Stage latency histograms (ingest decode/apply, store append and
	// fsync, tail broadcast, e2e violation age, ...) plus Go runtime
	// health, from the process-wide instrument registry.
	obs.Default().WriteMetrics(&b)
	obs.WriteRuntimeMetrics(&b)
	fmt.Fprint(w, b.String())
}

// escapeLabel escapes a Prometheus label value per the exposition format
// (backslash, quote and newline).
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
