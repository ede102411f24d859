package assertion

import "sync"

// This file declares the violation storage seam: the ViolationStore
// interface the export collector keeps one of per ingest shard, and
// MemStore, the in-memory backend — which is also what an edge Recorder
// records into, concretely, with no seam in between.
//
// The canonical entry point for the seam is the internal/store package,
// which re-exports these types under their store names and adds the
// on-disk SegmentStore backend. The declarations live here because Go's
// import graph forbids assertion -> store (every store implementation
// needs the Violation and Stats types) and MemStore is the Recorder's
// own storage; internal/store aliases them so the two packages share one
// set of types.
//
// Query is the seam's one read path. Every reader — Recorder.Violations
// and ByAssertion, the collector's merged views, /v1/violations/query —
// is a StoreQuery, and both backends answer it from one retained-log
// shape, the RowLog (rowlog.go): 56-byte pointer-free rows that name
// their assertion and stream by id into the log's name table, with the
// PostingIndex over them (postings.go). MemStore keeps it as a ring
// bounded by its limit that builds its postings on the first filtered or
// ByKey query; SegmentStore keeps it flat, mirroring its segment files,
// indexed from open. A Violation is built only for what a query returns,
// what a store evicts and what compaction re-encodes. A filtered query
// walks only its matching postings, a limited one keeps only the newest
// Limit matches — under ByKey skipping the blocks of the log whose Time
// bound cannot reach them — and the store lock is held for that walk
// rather than for a copy of the whole retained log. Only the unlimited,
// unfiltered query is still a full copy. The retention planner and
// IngestRuns read the rows' ids (RowLog.Plan, RowLog.IngestRuns).
//
// The statistics have one shape too: each backend folds every append into
// a StatsTable (recorder.go) under the lock that guards its RowLog, so the
// statistics and the retained log change together.
//
// The seam's other direction is the EvictionObserver a store's owner may
// set on the concrete backend (it is not part of ViolationStore): the
// store reports what leaves its retained log — a ring overflow or a
// compaction — so a derived view can be kept current at the rate the log
// changes instead of re-read whenever it is consulted. The collector's label service keeps its candidate index
// that way; its adds it already hears from the ingest path.

// StoreQuery selects retained violations from a ViolationStore. The zero
// value selects everything.
type StoreQuery struct {
	// Assertion restricts results to one assertion name ("" = any).
	Assertion string
	// Stream restricts results to one stream key ("" = any).
	Stream string
	// Limit keeps only the newest N matches (0 = all).
	Limit int
	// ByKey makes "newest" mean greatest by (Time, Stream, SampleIndex)
	// with ties to the later arrival, instead of last to arrive, and
	// answers in that key order instead of arrival order. A reader
	// merging several stores in SortViolations order sets it, so that
	// each store's newest Limit are the only ones that can reach the
	// merged newest Limit, and arrive ready to merge (MergeNewest).
	ByKey bool
}

// Matches reports whether v satisfies the query's filters (Limit is
// applied by the store over the matches).
func (q StoreQuery) Matches(v Violation) bool {
	if q.Assertion != "" && v.Assertion != q.Assertion {
		return false
	}
	if q.Stream != "" && v.Stream != q.Stream {
		return false
	}
	return true
}

// StoreInfo describes a store's current shape, for metrics and
// dashboards.
type StoreInfo struct {
	// Backend names the implementation ("mem", "segment").
	Backend string `json:"backend"`
	// Entries is the number of retained violations.
	Entries int `json:"entries"`
	// Segments is the number of live segment files (0 for in-memory
	// backends).
	Segments int `json:"segments"`
	// Bytes is the on-disk footprint of the retained log (0 for
	// in-memory backends).
	Bytes int64 `json:"bytes"`
}

// EvictionObserver hears what leaves a store's retained log. A store with
// an observer set calls it under its own lock, so the calls arrive in the
// order the log changed; the observer must return quickly, must not call
// back into the store, and must not keep vs: the store builds what it
// evicts into a buffer it reuses for the next call (a one-slot one for a
// ring overflow, one of at most 1024 for a compaction's runs).
type EvictionObserver interface {
	// ObserveEvicted reports violations evicted by the log's own bound or
	// by a compaction, oldest first.
	ObserveEvicted(vs []Violation)
}

// ViolationStore is the violation storage seam: the backend a collector
// shard keeps its queryable log and aggregate statistics in.
// Implementations must be safe for concurrent use.
//
// Two backends exist: MemStore (this package; a ring buffer, also the
// edge Recorder's storage) and store.SegmentStore
// (append-only on-disk segment files with exact crash recovery). The
// internal/store package is the canonical home of the seam; it aliases
// this interface so both packages share one type.
type ViolationStore interface {
	// Append records one violation: aggregate statistics always update,
	// and the violation joins the retained log (which a bound or
	// retention policy may later evict it from).
	Append(v Violation) error
	// Query returns a fresh slice of the retained violations matching q,
	// in arrival order (key order under q.ByKey); the zero query copies
	// the whole retained log.
	Query(q StoreQuery) []Violation
	// StatsAll returns every fired assertion's aggregate statistics.
	// Statistics are complete over everything ever appended, regardless
	// of what the retained log has evicted.
	StatsAll() map[string]Stats
	// TotalFired returns the lifetime violation count.
	TotalFired() int
	// Dropped counts violations evicted by the retained log's own bound
	// (overflow, not retention policy).
	Dropped() int64
	// Compacted counts violations evicted by Compact.
	Compacted() int64
	// Compact applies a retention policy to the retained log and returns
	// how many violations it evicted: violations whose IngestUnix is
	// older than minIngestUnix are dropped (0 disables the age bound;
	// unstamped violations are exempt), and at most maxPerAssertion of
	// the newest violations are kept per assertion (<= 0 disables). A
	// budgets map overrides the cap for the assertions it names: only the
	// newest budgets[name] of each survive, absent assertions keep the
	// uniform cap — the per-shard half of a sharded store's global
	// per-assertion cap, planned from IngestRuns. Statistics are untouched.
	Compact(minIngestUnix int64, maxPerAssertion int, budgets ...map[string]int) (int, error)
	// IngestRuns returns, per assertion with retained violations, their
	// ingest stamps in arrival order, run-length encoded: what a planner
	// ranking one assertion's violations across several stores needs, at
	// a few bytes per distinct (assertion, second) instead of a copy of
	// the log.
	IngestRuns() map[string][]IngestRun
	// Sync makes every appended violation durable against process crash
	// (buffered disk stores flush to the OS; in-memory stores no-op).
	// Machine-crash durability additionally needs the fsync a disk
	// store's checkpoints and Close perform.
	Sync() error
	// Info describes the store's current shape for metrics.
	Info() StoreInfo
	// Close releases resources after a final checkpointing flush. MemStore's Close is a no-op and the store stays usable;
	// disk stores refuse appends afterwards.
	Close() error
}

// MemStore is the in-memory ViolationStore: a RowLog ring with O(1)
// eviction, indexed for Query once someone queries it by name or key, plus
// the per-assertion StatsTable, both under one lock. It is every edge
// Recorder's storage, the collector's "mem" shard backend, and the
// baseline the on-disk SegmentStore is benchmarked against. It is safe for
// concurrent use.
type MemStore struct {
	mu        sync.Mutex // guards everything below
	log       RowLog
	stats     StatsTable
	dropped   int64
	compacted int64
}

// SetEvictionObserver makes o hear every later eviction from the retained
// log (see EvictionObserver); nil detaches. Set it before the store is
// shared.
func (m *MemStore) SetEvictionObserver(o EvictionObserver) {
	m.mu.Lock()
	m.log.Observer = o
	m.mu.Unlock()
}

// NewMemStore returns an in-memory store keeping at most limit
// violations in its log (0 or negative = unbounded). Statistics are
// complete regardless of the bound.
func NewMemStore(limit int) *MemStore {
	return &MemStore{log: RowLog{limit: max(limit, 0)}}
}

// Append implements ViolationStore; it never fails.
func (m *MemStore) Append(v Violation) error {
	m.mu.Lock()
	m.stats.Fold(&v)
	if m.log.Append(0, m.log.Intern(v.Assertion), m.log.Intern(v.Stream), &v) {
		m.dropped++
	}
	m.mu.Unlock()
	return nil
}

// Query implements ViolationStore (see RowLog.Query). The first query
// that names an assertion or a stream, or asks ByKey (a sharded
// collector's newest, which the index's zone map serves), builds the
// index, one pass over the ring.
func (m *MemStore) Query(q StoreQuery) []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.Query(q)
}

// IndexSize reports the query index's keys and postings and its zone
// map's broken bounds (see PostingIndex.size).
func (m *MemStore) IndexSize() (keys, postings, badBounds int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.IndexSize()
}

// Stats returns one assertion's aggregate statistics.
func (m *MemStore) Stats(name string) (Stats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats.Get(name)
}

// StatsAll implements ViolationStore.
func (m *MemStore) StatsAll() map[string]Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats.All()
}

// TotalFired implements ViolationStore.
func (m *MemStore) TotalFired() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats.Total()
}

// Dropped implements ViolationStore.
func (m *MemStore) Dropped() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// Compacted implements ViolationStore.
func (m *MemStore) Compacted() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compacted
}

// Compact implements ViolationStore.
func (m *MemStore) Compact(minIngestUnix int64, maxPerAssertion int, budgets ...map[string]int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keep, evicted := m.log.Plan(minIngestUnix, maxPerAssertion, budgets)
	if evicted > 0 {
		m.log.Compact(keep, evicted)
		m.compacted += int64(evicted)
	}
	return evicted, nil
}

// IngestRuns implements ViolationStore.
func (m *MemStore) IngestRuns() map[string][]IngestRun {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.IngestRuns()
}

// IngestRun is a run of one assertion's retained violations that share an
// ingest stamp and arrived back to back (among that assertion's).
type IngestRun struct {
	Unix int64 // the shared IngestUnix (0 = unstamped)
	N    int   // how many violations
}

// Sync implements ViolationStore; an in-memory store has nothing to
// flush.
func (m *MemStore) Sync() error { return nil }

// Info implements ViolationStore.
func (m *MemStore) Info() StoreInfo {
	m.mu.Lock()
	entries := m.log.Len()
	m.mu.Unlock()
	return StoreInfo{Backend: "mem", Entries: entries}
}

// Close implements ViolationStore as a no-op: the store stays usable.
func (m *MemStore) Close() error { return nil }

// AssertionNames returns the names of assertions that have fired,
// sorted — shared by Recorder.AssertionNames and the merged pool views.
func (m *MemStore) AssertionNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats.Names()
}
