// Package labelsvc is the collector-served half of the paper's
// active-learning loop (§3): it turns the fleet's retained violation
// history into a ranked labeling queue. Violations ingested across all
// sources are grouped into per-sample candidates keyed by (source,
// stream, sample), each carrying a per-assertion severity feature vector;
// a bandit selector (BAL by default) ranks them round by round; budgeted,
// per-assertion-diverse batches are leased to label pullers; and posted
// labels take their samples out of the pool. Consistency-generated
// assertions additionally carry the §4.2 corrective weak-label proposal
// for their violations.
//
// Every selection is a deterministic function of (seed, round, candidate
// pool, algorithm state): the selector runs the bandit.RoundSelector
// reseed-per-round protocol, and all cross-round state — selector
// algorithm state, leases, labeled set, stream→source bindings — is a
// plain JSON State. On disk it is two files (state.go): a snapshot of the
// State (labels.json) and an append-only log beside it (labels.log) of
// what each mutation changed since, one fsync'd record per mutation (a
// store.RecordLog; the internal/store package comment has its framing and
// damage rule), so a label call writes what it changed rather than every
// label ever taken.
// The log is folded into a fresh snapshot once it outgrows the last one.
// Reviving a Service from the two after kill -9 continues the loop byte
// identically.
//
// The candidate pool is a live index (index.go), maintained at the rate
// the retained log changes rather than rebuilt at the rate it is read.
// It is seeded once — one read of the ViolationSource, at the first label
// call that reads the pool (Next, Stats, Pool) and again after
// RestoreState or ObserveReplaced — and from then on folded forward by
// deltas: the adds ObserveBatch hears from the ingest path and the
// evictions ObserveEvicted hears from the stores. A service nobody asks
// for labels never reads the log and keeps no index. Two locks split the
// work:
//
//   - the feed lock guards the queue of pending deltas, the seeded flag
//     and the stream→source bindings' readers on the ingest side. It is
//     all ObserveBatch and ObserveEvicted take (ObserveBatch adds
//     Service.mu only when a binding actually changes, because a new
//     binding persists before the sender's ack), so ingest never waits
//     behind a pull.
//   - Service.mu guards everything a label call reads and writes: the
//     index, the selector, leases, the labeled set, the state file. Label
//     calls that read the pool drain the feed under it before they read.
//
// Served bytes are those of a full rebuild over the retained log at the
// moment of the call: Candidate features are materialised from the index
// (and the current bindings) only for the candidates a call returns.
package labelsvc

import (
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"omg/internal/assertion"
	"omg/internal/bandit"
	"omg/internal/consistency"
)

// ErrClosed is returned by mutating calls after Close.
var ErrClosed = errors.New("labelsvc: service closed")

// StateVersion versions the persisted State schema.
const StateVersion = 1

// ViolationSource supplies the retained violation history the candidate
// index is seeded from — in production, the export.Collector's shards. It
// is read once per seed, in any order; afterwards the service hears the
// log change through ObserveBatch and ObserveEvicted.
type ViolationSource interface {
	Violations() []assertion.Violation
}

// SeedLocker is the optional half of a ViolationSource whose log changes
// while the service runs. LockSeed holds every writer of the log (an
// ingest apply up to and including its ObserveBatch, a compaction, a
// restore) off until the returned unlock is called, so that the seed's
// read and its switch to delta-folding are one atomic step: no violation
// is both in the read and in the feed, and none is in neither. The
// service calls it holding none of its own locks.
type SeedLocker interface {
	LockSeed() (unlock func())
}

// maxBudget caps any single pull.
const maxBudget = 256

// Config tunes a Service. The zero value selects BAL with seed 1, a
// 5-minute lease TTL, batches of 16 (max 256), and no state file.
type Config struct {
	// Selector is the ranking strategy: one of bandit.RoundSelectorKinds
	// ("bal", "uncertainty", "uniform-ma", "random"); "" = "bal".
	Selector string
	// Seed bases the per-round RNG derivation.
	Seed int64
	// LeaseTTL is how long a served sample stays exclusively leased to
	// its puller before becoming selectable again.
	LeaseTTL time.Duration
	// DefaultBudget is the batch size when a pull names none.
	DefaultBudget int
	// StatePath, when non-empty, is the JSON snapshot of the service's
	// State (written atomically), revived from at construction with the
	// delta log beside it — the same path with ".json" replaced by ".log" —
	// which every mutation appends one fsync'd record to (the labeling
	// loop's crash-recovery seam).
	StatePath string
	// Now overrides the clock (tests). Defaults to time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Selector == "" {
		c.Selector = "bal"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 5 * time.Minute
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 16
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// SampleKey identifies one data point across the fleet. Source is the
// exporting edge's wire source name, resolved through the service's
// persisted stream→source bindings (violations themselves carry only the
// stream); identity for leasing and labeling is (stream, sample).
type SampleKey struct {
	Source string `json:"source,omitempty"`
	Stream string `json:"stream,omitempty"`
	Sample int    `json:"sample"`
}

// key2 is the internal identity — the fields present on every violation.
type key2 struct {
	stream string
	sample int
}

func (k SampleKey) key2() key2 { return key2{k.Stream, k.Sample} }

// WeakLabel is the §4.2 corrective proposal attached to a candidate
// because a consistency-generated assertion fired on it.
type WeakLabel struct {
	// Kind is the correction rule: modify-attr, add-output, remove-output.
	Kind consistency.ProposalKind `json:"kind"`
	// Assertion is the generated assertion that fired.
	Assertion string `json:"assertion"`
	// AttrKey is the attribute to rewrite (modify-attr only).
	AttrKey string `json:"attr_key,omitempty"`
	// Severity is the candidate's severity for that assertion.
	Severity float64 `json:"severity"`
}

// Candidate is one labelable sample with its assembled feature vector.
type Candidate struct {
	SampleKey
	// Severities maps assertion name → the sample's maximum observed
	// severity for it (the bandit's per-arm context).
	Severities map[string]float64 `json:"severities"`
	// TopAssertion is the assertion with the highest severity
	// (lexicographic tie-break); the diversity interleave groups by it.
	TopAssertion string `json:"top_assertion"`
	// MaxSeverity is the severity of TopAssertion.
	MaxSeverity float64 `json:"max_severity"`
	// WeakLabels carries corrective proposals from consistency-generated
	// assertions that fired on this sample.
	WeakLabels []WeakLabel `json:"weak_labels,omitempty"`
	// LeaseUntilUnix is set on served candidates: the lease expiry.
	LeaseUntilUnix int64 `json:"lease_until_unix,omitempty"`
}

// Batch is one served labeling round.
type Batch struct {
	Round          int         `json:"round"`
	Selector       string      `json:"selector"`
	Budget         int         `json:"budget"`
	LeaseTTLMillis int64       `json:"lease_ttl_ms"`
	Candidates     []Candidate `json:"candidates"`
}

// Feedback is one posted label.
type Feedback struct {
	SampleKey
	// Label is the human label (opaque to the service).
	Label string `json:"label,omitempty"`
	// ModelCorrect reports whether the model's original output was in
	// fact correct (the assertion flagged a false positive). Labeling a
	// real model error (ModelCorrect=false) counts in ErrorsFound.
	ModelCorrect bool `json:"model_correct,omitempty"`
}

// FeedbackResult summarises one feedback post.
type FeedbackResult struct {
	// Applied counts newly labeled samples; Duplicates counts samples
	// already labeled (idempotent re-posts).
	Applied    int `json:"applied"`
	Duplicates int `json:"duplicates"`
	Round      int `json:"round"`
}

// Lease records one sample's exclusive assignment to a puller.
type Lease struct {
	SampleKey
	Puller      string `json:"puller,omitempty"`
	Round       int    `json:"round"`
	ExpiresUnix int64  `json:"expires_unix"`
}

// LabeledSample is one completed label in the persisted State.
type LabeledSample struct {
	SampleKey
	Label        string `json:"label,omitempty"`
	ModelCorrect bool   `json:"model_correct,omitempty"`
	Round        int    `json:"round,omitempty"`
}

// State is the service's full persistent state: plain JSON, the body of
// the snapshot file, sufficient to revive the loop exactly.
type State struct {
	Version  int                       `json:"version"`
	Selector bandit.RoundSelectorState `json:"selector"`
	Round    int                       `json:"round"`
	Served   int64                     `json:"served"`
	Feedback int64                     `json:"feedback"`
	// ErrorsFound counts labels that confirmed a real model error.
	ErrorsFound int64 `json:"errors_found"`
	// Labeled and Leases are sorted by (stream, sample) for stable bytes.
	Labeled []LabeledSample `json:"labeled,omitempty"`
	Leases  []Lease         `json:"leases,omitempty"`
	// StreamSources maps stream → last exporting source, the join that
	// completes SampleKey.Source.
	StreamSources map[string]string `json:"stream_sources,omitempty"`
}

// Stats is the service's observable summary (GET /v1/labels/stats).
type Stats struct {
	Selector    string `json:"selector"`
	Seed        int64  `json:"seed"`
	Round       int    `json:"round"`
	Pool        int    `json:"pool"`
	Candidates  int    `json:"candidates"`
	Assertions  int    `json:"assertions"`
	Labeled     int    `json:"labeled"`
	Leased      int    `json:"leased"`
	Served      int64  `json:"served"`
	Feedback    int64  `json:"feedback"`
	ErrorsFound int64  `json:"errors_found"`
}

// Service is the label-selection engine. All methods are safe for
// concurrent use.
type Service struct {
	// mu guards the loop: selector, round counters, labeled set, leases,
	// the index and the state file. Lock order: a SeedLocker's lock, then
	// mu, then feedMu.
	mu  sync.Mutex
	cfg Config
	src ViolationSource
	sel *bandit.RoundSelector

	round       int
	served      int64
	feedback    int64
	errorsFound int64
	labeled     map[key2]LabeledSample
	leases      map[key2]Lease
	// streamSrc is written with mu and feedMu both held, so either lock
	// is enough to read it.
	streamSrc map[string]string

	// idx is the candidate index; meaningful only while seeded.
	idx *index
	// files is the on-disk state, the snapshot and its delta log; nil
	// without a StatePath. expired holds the lease drops expiry made since
	// the last write, for the next record to carry.
	files   *stateFiles
	expired []SampleKey
	// unsaved is set while the state on disk lags the loop: the last write
	// failed (logged once per such streak), so the next call writes a
	// snapshot even if it has nothing new.
	unsaved bool
	closed  bool

	// feedMu guards the delta queue between the ingest side and the label
	// calls. seeded says the index exists and deltas are worth queueing;
	// it drops back to false when the log is replaced under the index or
	// when the queue outgrows feedCap — folding more deltas than the
	// index has cells costs more than reading the log again — and the
	// next label call then seeds afresh. It is written with feedMu held;
	// ObserveEvicted also reads it without, as a reason not to take the
	// lock at all.
	feedMu  sync.Mutex
	seeded  atomic.Bool
	feed    []delta
	feedCap int

	adds, evicts, seeds, writeErrs atomic.Int64
}

// minFeedCap is the floor of the delta queue's bound: a small index still
// tolerates this many pending deltas before a re-seed is preferred.
const minFeedCap = 1 << 16

// New builds a Service over the given violation source. If cfg.StatePath
// names an existing snapshot the persisted loop is revived from it and
// the log beside it (the snapshot's selector kind and seed win over cfg,
// so a restarted server continues the same deterministic trace
// regardless of flag drift).
func New(src ViolationSource, cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	sel, err := bandit.NewRoundSelector(cfg.Selector, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:       cfg,
		src:       src,
		sel:       sel,
		labeled:   make(map[key2]LabeledSample),
		leases:    make(map[key2]Lease),
		streamSrc: make(map[string]string),
	}
	if cfg.StatePath != "" {
		s.files = newStateFiles(cfg.StatePath)
		if err := s.loadLocked(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ObserveBatch notifies the service that a batch from the named source
// was ingested and is now in the retained log: its violations are queued
// as adds for the index (when there is one), and the stream→source
// bindings are refreshed. A new binding is persisted before returning so
// a post-crash revival still knows every acked stream's source — the one
// case that takes the loop's lock; a batch that binds nothing new never
// waits on a label call.
func (s *Service) ObserveBatch(source string, vs []assertion.Violation) {
	s.feedMu.Lock()
	s.enqueueLocked(vs, +1, &s.adds)
	rebind := false
	if source != "" {
		// One lookup per run of equal streams, not one per violation.
		last := ""
		for _, v := range vs {
			if v.Stream == last {
				continue
			}
			if last = v.Stream; last != "" && s.streamSrc[last] != source {
				rebind = true
				break
			}
		}
	}
	s.feedMu.Unlock()
	if !rebind {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	bound := make(map[string]string)
	s.feedMu.Lock()
	for _, v := range vs {
		if v.Stream != "" && s.streamSrc[v.Stream] != source {
			s.streamSrc[v.Stream] = source
			bound[v.Stream] = source
		}
	}
	s.feedMu.Unlock()
	if len(bound) > 0 {
		s.persistLocked(&stateDelta{StreamSources: bound})
	}
}

// ObserveEvicted implements assertion.EvictionObserver: vs left the
// retained log (ring overflow, compaction) and is queued as evictions for
// the index. It takes only the feed lock and does not keep vs.
func (s *Service) ObserveEvicted(vs []assertion.Violation) {
	if !s.seeded.Load() {
		return // nobody has asked for labels: an eviction costs this load
	}
	s.feedMu.Lock()
	s.enqueueLocked(vs, -1, &s.evicts)
	s.feedMu.Unlock()
}

// ObserveReplaced reports that the retained log changed in a way no delta
// describes — the collector calls it after a store refused part of a
// batch — so the index is dropped and the next label call seeds again.
func (s *Service) ObserveReplaced() {
	s.feedMu.Lock()
	s.unseedLocked()
	s.feedMu.Unlock()
}

// unseedLocked drops the feed and marks the index for a fresh seed at the
// next label call. Called with feedMu held.
func (s *Service) unseedLocked() {
	s.seeded.Store(false)
	s.feed = nil
}

// enqueueLocked queues one delta per positive-severity violation — the
// only ones a candidate is made of — while an index exists to fold them
// into. Called with feedMu held.
func (s *Service) enqueueLocked(vs []assertion.Violation, n int32, events *atomic.Int64) {
	if !s.seeded.Load() {
		return
	}
	if len(s.feed)+len(vs) > s.feedCap {
		s.unseedLocked()
		return
	}
	queued := 0
	for _, v := range vs {
		if v.Severity > 0 {
			s.feed = append(s.feed, delta{v.Stream, v.Assertion, v.SampleIndex, v.Severity, n})
			queued++
		}
	}
	events.Add(int64(queued))
}

// lockCurrent takes mu and brings the index up to the retained log: it
// folds every queued delta, seeding the index first if there is none.
// Every label call that reads the pool starts here. The seed is the one
// place the log itself is read; it runs with the source's writers held
// off (SeedLocker), which requires letting go of mu first.
func (s *Service) lockCurrent() {
	s.mu.Lock()
	for !s.drainLocked() {
		s.mu.Unlock()
		unlock := func() {}
		if l, ok := s.src.(SeedLocker); ok {
			unlock = l.LockSeed()
		}
		s.mu.Lock()
		s.seedLocked()
		unlock()
	}
}

// drainLocked folds the queued deltas into the index and reports whether
// there is an index at all; when there is not (never seeded, or dropped
// since) it lets go of whatever stale one is left.
func (s *Service) drainLocked() bool {
	s.feedMu.Lock()
	seeded, batch := s.seeded.Load(), s.feed
	s.feed = nil
	s.feedMu.Unlock()
	if !seeded {
		s.idx = nil
		return false
	}
	for _, d := range batch {
		s.idx.apply(d)
	}
	s.idx.settle()
	s.feedMu.Lock()
	s.feedCap = max(minFeedCap, 2*s.idx.ncells)
	s.feedMu.Unlock()
	return true
}

// seedLocked builds the index from one read of the retained log — the
// full rebuild, and its only caller outside tests is lockCurrent — and
// switches the feed on. Writers of the log are held off by the caller. A
// concurrent label call may have seeded while mu was released.
func (s *Service) seedLocked() {
	if s.seeded.Load() {
		return
	}
	s.idx = newIndex()
	for _, v := range s.src.Violations() {
		if v.Severity > 0 {
			s.idx.apply(delta{v.Stream, v.Assertion, v.SampleIndex, v.Severity, +1})
		}
	}
	s.seeds.Add(1)
	s.feedMu.Lock()
	s.seeded.Store(true)
	s.feedCap = minFeedCap // until the drain that follows sizes it to the index
	s.feedMu.Unlock()
}

// Next leases the next budgeted batch of candidates to puller. A budget
// of 0 means the configured default; the configured maximum always caps
// it. Samples already labeled or under an unexpired lease are never
// served, so two concurrent pullers get disjoint batches. An empty pool
// yields an empty batch without advancing the round. A non-nil error
// other than ErrClosed means the round could not be written to disk: the
// round is taken back (its leases, the round and served counters, the
// selector's state), no candidate is returned, and a retry redraws the
// same round.
func (s *Service) Next(budget int, puller string) (Batch, error) {
	s.lockCurrent()
	defer s.mu.Unlock()
	if s.closed {
		return Batch{}, ErrClosed
	}
	if budget <= 0 {
		budget = s.cfg.DefaultBudget
	}
	budget = min(budget, maxBudget)
	now := s.cfg.Now()
	s.expireLocked(now)
	avail, cands := s.availableLocked()
	batch := Batch{
		Round:          s.round,
		Selector:       s.sel.Name(),
		Budget:         budget,
		LeaseTTLMillis: s.cfg.LeaseTTL.Milliseconds(),
	}
	if len(avail) == 0 {
		return batch, nil
	}

	round := s.round + 1
	// The selector's fields are only ever replaced whole, so a copy of the
	// struct is enough to take a failed round back.
	selBefore := *s.sel
	picks := s.sel.Select(bandit.RoundState{
		Round:       round,
		Budget:      overProvision(budget, len(avail)),
		Candidates:  avail,
		FiredCounts: bandit.FiredCounts(avail, len(s.idx.axis)),
	})
	chosen := diversify(cands, len(s.idx.axis), picks, budget)

	expires := now.Add(s.cfg.LeaseTTL).Unix()
	batch.Round = round
	batch.Candidates = make([]Candidate, 0, len(chosen))
	d := stateDelta{Leased: make([]Lease, 0, len(chosen))}
	for _, pos := range chosen {
		c := s.materialiseLocked(cands[pos])
		c.LeaseUntilUnix = expires
		batch.Candidates = append(batch.Candidates, c)
		l := Lease{
			SampleKey:   c.SampleKey,
			Puller:      puller,
			Round:       round,
			ExpiresUnix: expires,
		}
		s.leases[c.key2()] = l
		d.Leased = append(d.Leased, l)
	}
	s.round = round
	s.served += int64(len(batch.Candidates))
	if err := s.persistLocked(&d); err != nil {
		// Nobody will hold these leases: take the round back, so a puller
		// retrying against a full disk does not drain the pool into them.
		for _, c := range batch.Candidates {
			delete(s.leases, c.key2())
		}
		s.round = round - 1
		s.served -= int64(len(batch.Candidates))
		*s.sel = selBefore
		return Batch{}, err
	}
	return batch, nil
}

// overProvision asks the selector for twice the budget (bounded by the
// pool) so the diversity interleave has surplus ranking to draw from
// when the top of the ranking collapses onto one assertion.
func overProvision(budget, pool int) int {
	b := 2 * budget
	if b > pool {
		b = pool
	}
	return b
}

// ApplyFeedback applies posted labels: marks samples labeled, releases their
// leases and counts confirmed model errors. It never moves the selector,
// whose state advances through firing counts when a round is drawn, and it
// reads nothing from the candidate index, so it neither seeds nor drains
// it. Re-posting an already-labeled sample is an idempotent duplicate.
// Labels for samples the service never served are accepted too
// (volunteered labels still shrink the pool). A non-nil error other than
// ErrClosed means the labels were applied in memory but could not be
// written to disk; re-posting them (they then count as duplicates)
// retries the write.
func (s *Service) ApplyFeedback(items []Feedback) (FeedbackResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return FeedbackResult{}, ErrClosed
	}
	res := FeedbackResult{Round: s.round}
	var d stateDelta
	for _, f := range items {
		k := f.key2()
		if _, dup := s.labeled[k]; dup {
			res.Duplicates++
			continue
		}
		rec := LabeledSample{SampleKey: f.SampleKey, Label: f.Label, ModelCorrect: f.ModelCorrect}
		if l, ok := s.leases[k]; ok {
			rec.Round = l.Round
			rec.Source = l.Source
			delete(s.leases, k)
			d.Dropped = append(d.Dropped, dropKey(k))
		} else if src, ok := s.streamSrc[f.Stream]; ok && rec.Source == "" {
			rec.Source = src
		}
		s.labeled[k] = rec
		d.Labeled = append(d.Labeled, rec)
		res.Applied++
		s.feedback++
		if !f.ModelCorrect {
			s.errorsFound++
		}
	}
	if res.Applied > 0 || s.unsaved {
		if err := s.persistLocked(&d); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Stats reports the service's current summary.
func (s *Service) Stats() Stats {
	s.lockCurrent()
	defer s.mu.Unlock()
	s.expireLocked(s.cfg.Now())
	avail, _ := s.availableLocked()
	return Stats{
		Selector:    s.sel.Name(),
		Seed:        s.selSeed(),
		Round:       s.round,
		Pool:        len(avail),
		Candidates:  s.idx.ncands,
		Assertions:  len(s.idx.axis),
		Labeled:     len(s.labeled),
		Leased:      len(s.leases),
		Served:      s.served,
		Feedback:    s.feedback,
		ErrorsFound: s.errorsFound,
	}
}

func (s *Service) selSeed() int64 { return s.sel.StateSnapshot().Seed }

// Pool returns the currently selectable candidates in canonical order
// (tests and diagnostics).
func (s *Service) Pool() []Candidate {
	s.lockCurrent()
	defer s.mu.Unlock()
	s.expireLocked(s.cfg.Now())
	_, cands := s.availableLocked()
	out := make([]Candidate, len(cands))
	for i, c := range cands {
		out[i] = s.materialiseLocked(c)
	}
	return out
}

// StateSnapshot exports the full persistent state (sorted, deep-copied).
func (s *Service) StateSnapshot() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateLocked()
}

// RestoreState replaces the service's state with a snapshot's and
// persists it as the state file's snapshot: how a legacy collector
// snapshot file's label state is imported into a data directory.
func (s *Service) RestoreState(st State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.restoreLocked(st)
	s.persistLocked(nil)
}

// Round returns the number of completed selection rounds.
func (s *Service) Round() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.round
}

// ActiveLeases returns the number of unexpired leases.
func (s *Service) ActiveLeases() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.cfg.Now())
	return len(s.leases)
}

// Counters returns the served/feedback/errors-found totals (metrics).
func (s *Service) Counters() (served, feedback, errorsFound int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served, s.feedback, s.errorsFound
}

// IndexStats describes the candidate index for metrics, without ever
// building it: a collector nobody has asked for labels reports zeros.
type IndexStats struct {
	// Candidates is the index's size after folding what is queued (0
	// while there is no index).
	Candidates int
	// Adds and Evictions count the deltas queued for the index; Seeds how
	// often it was built from the retained log.
	Adds, Evictions, Seeds int64
	// StateWriteErrors counts failed writes of the state files;
	// StateDeltas and StateSnapshots the durable ones, by kind: a log
	// record per mutation, a snapshot when the log outgrows the last one.
	StateWriteErrors, StateDeltas, StateSnapshots int64
}

// IndexStats reports the index's size and lifetime counters.
func (s *Service) IndexStats() IndexStats {
	st := IndexStats{
		Adds:             s.adds.Load(),
		Evictions:        s.evicts.Load(),
		Seeds:            s.seeds.Load(),
		StateWriteErrors: s.writeErrs.Load(),
	}
	if f := s.files; f != nil {
		st.StateDeltas, st.StateSnapshots = f.deltas.Load(), f.snapshots.Load()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drainLocked() {
		st.Candidates = s.idx.ncands
	}
	return st
}

// Close persists the final state as a snapshot and rejects further
// mutations.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.files == nil {
		return nil
	}
	err := s.files.snapshot(s.stateLocked())
	if cerr := s.files.close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Service) stateLocked() State {
	st := State{
		Version:     StateVersion,
		Selector:    s.sel.StateSnapshot(),
		Round:       s.round,
		Served:      s.served,
		Feedback:    s.feedback,
		ErrorsFound: s.errorsFound,
	}
	for _, rec := range s.labeled {
		st.Labeled = append(st.Labeled, rec)
	}
	sort.Slice(st.Labeled, func(i, j int) bool {
		a, b := st.Labeled[i], st.Labeled[j]
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.Sample < b.Sample
	})
	for _, l := range s.leases {
		st.Leases = append(st.Leases, l)
	}
	sort.Slice(st.Leases, func(i, j int) bool {
		a, b := st.Leases[i], st.Leases[j]
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.Sample < b.Sample
	})
	if len(s.streamSrc) > 0 {
		st.StreamSources = make(map[string]string, len(s.streamSrc))
		for k, v := range s.streamSrc {
			st.StreamSources[k] = v
		}
	}
	return st
}

// restoreLocked replaces the loop's state with st. A selector kind this
// build does not know (one since removed) does not strand the labels and
// leases: they are revived and the configured selector ranks from here on,
// which is logged, since the snapshot's kind otherwise wins over flags.
func (s *Service) restoreLocked(st State) {
	if st.Selector.Kind != "" {
		sel, err := bandit.NewRoundSelectorFromState(st.Selector)
		if err != nil {
			log.Printf("labelsvc: state file %s names selector %q, which this build does not have; continuing under %q: %v",
				s.cfg.StatePath, st.Selector.Kind, s.sel.Name(), err)
		} else {
			s.sel = sel
		}
	}
	s.round = st.Round
	s.served = st.Served
	s.feedback = st.Feedback
	s.errorsFound = st.ErrorsFound
	s.labeled = make(map[key2]LabeledSample, len(st.Labeled))
	for _, rec := range st.Labeled {
		s.labeled[rec.key2()] = rec
	}
	s.leases = make(map[key2]Lease, len(st.Leases))
	for _, l := range st.Leases {
		s.leases[l.key2()] = l
	}
	streamSrc := make(map[string]string, len(st.StreamSources))
	for k, v := range st.StreamSources {
		streamSrc[k] = v
	}
	// A restored loop ranks whatever the source holds now: drop the index
	// with the rest of the old state.
	s.feedMu.Lock()
	s.streamSrc = streamSrc
	s.unseedLocked()
	s.feedMu.Unlock()
}

// persistLocked makes a mutation durable — d, the one record of what it
// changed, appended to the log, or a snapshot of the whole state when d is
// nil, when the log has outgrown the last snapshot, or when an earlier
// write failed — with a failure accounted for: counted, logged once per
// streak of failures, and remembered (unsaved) so the next call writes a
// snapshot even if it has nothing new.
func (s *Service) persistLocked(d *stateDelta) error {
	f := s.files
	if f == nil {
		return nil
	}
	var err error
	wrote := false
	if d != nil && !s.unsaved {
		d.Selector = s.sel.StateSnapshot()
		d.Round, d.Served, d.Feedback, d.ErrorsFound = s.round, s.served, s.feedback, s.errorsFound
		d.Dropped = append(d.Dropped, s.expired...)
		wrote, err = f.appendDelta(d)
	}
	if !wrote && err == nil {
		err = f.snapshot(s.stateLocked())
	}
	streak := s.unsaved
	s.unsaved = err != nil
	if err == nil {
		s.expired = nil
		return nil
	}
	s.writeErrs.Add(1)
	if !streak {
		log.Printf("labelsvc: state file %s not written, label state is not durable: %v", s.cfg.StatePath, err)
	}
	return fmt.Errorf("labelsvc: write state: %w", err)
}

// expireLocked drops the leases that have run out. With a state file the
// drops also ride on the next record written, whichever call writes it.
func (s *Service) expireLocked(now time.Time) {
	cut := now.Unix()
	for k, l := range s.leases {
		if l.ExpiresUnix <= cut {
			delete(s.leases, k)
			if s.files != nil {
				s.expired = append(s.expired, dropKey(k))
			}
		}
	}
}

// availableLocked walks the index in canonical (stream, sample) order and
// returns the selectable candidates: unlabeled and not under an active
// lease. cands[i] backs avail[i]; avail[i].Index is the candidate's rank
// among all candidates, available or not, which is what selectors break
// ties by.
func (s *Service) availableLocked() (avail []bandit.Candidate, cands []*cand) {
	x := s.idx
	avail = make([]bandit.Candidate, 0, x.ncands)
	cands = make([]*cand, 0, x.ncands)
	rank := 0
	for _, st := range x.order {
		for _, c := range st.list {
			if c.positive == 0 {
				continue
			}
			i := rank
			rank++
			k := key2{st.name, c.sample}
			if _, ok := s.labeled[k]; ok {
				continue
			}
			if _, ok := s.leases[k]; ok {
				continue
			}
			x.derive(c)
			avail = append(avail, bandit.Candidate{Index: i, Severities: c.vec, Uncertainty: c.maxSev})
			cands = append(cands, c)
		}
	}
	return avail, cands
}

// materialiseLocked builds the served form of an index candidate: the
// per-assertion severities, the weak-label proposals of its
// consistency-generated assertions, and the source its stream is bound to
// now.
func (s *Service) materialiseLocked(c *cand) Candidate {
	x := s.idx
	x.derive(c)
	out := Candidate{
		SampleKey:    SampleKey{Source: s.streamSrc[c.st.name], Stream: c.st.name, Sample: c.sample},
		Severities:   make(map[string]float64, len(c.cells)),
		TopAssertion: x.axis[c.top],
		MaxSeverity:  c.maxSev,
	}
	for pos, sev := range c.vec {
		if sev <= 0 {
			continue
		}
		name := x.axis[pos]
		out.Severities[name] = sev
		if kind, attrKey, ok := consistency.ProposalKindForAssertion(name); ok {
			out.WeakLabels = append(out.WeakLabels, WeakLabel{
				Kind:      kind,
				Assertion: name,
				AttrKey:   attrKey,
				Severity:  sev,
			})
		}
	}
	return out
}

// diversify makes a batch per-assertion-diverse. picks are a selector's
// ranked positions into cands (the available candidates in canonical
// order, over an axis of d assertions); it interleaves them round-robin
// across dominant assertions — preserving rank order within each
// assertion — truncated to budget, and then guarantees representation:
// every assertion that still has an available candidate gets at least one
// slot when the budget allows, evicting the tail of the most-represented
// group. Fully deterministic, so crash recovery and the reference trace
// reproduce it exactly.
func diversify(cands []*cand, d int, picks []int, budget int) []int {
	var groupOrder []int32
	groups := make([][]int, d)
	for _, p := range picks {
		if p < 0 || p >= len(cands) {
			continue
		}
		top := cands[p].top
		if groups[top] == nil {
			groupOrder = append(groupOrder, top)
		}
		groups[top] = append(groups[top], p)
	}
	out := make([]int, 0, budget)
	for len(out) < budget {
		advanced := false
		for _, g := range groupOrder {
			if len(out) >= budget {
				break
			}
			if q := groups[g]; len(q) > 0 {
				out = append(out, q[0])
				groups[g] = q[1:]
				advanced = true
			}
		}
		if !advanced {
			break
		}
	}
	if len(out) < budget {
		// The ranking was exhausted before the budget: nothing to evict,
		// nothing unrepresented that the selector could have offered.
		return out
	}
	count := make([]int, d)
	inBatch := make(map[int]bool, len(out))
	for _, p := range out {
		count[cands[p].top]++
		inBatch[p] = true
	}
	// Axis positions are in name order, so walking them ascending is the
	// lexicographic walk (and tie-break) over assertion names.
	for name := range count {
		if count[name] > 0 {
			continue
		}
		// Highest-severity available candidate dominated by this
		// assertion (canonical order breaks ties).
		best := -1
		for p, c := range cands {
			if inBatch[p] || int(c.top) != name {
				continue
			}
			if best < 0 || c.maxSev > cands[best].maxSev {
				best = p
			}
		}
		if best < 0 {
			continue
		}
		// Evict the last occurrence of the most-represented group, but
		// never a group's only entry.
		evictGroup, maxN := -1, 1
		for g, n := range count {
			if n > maxN {
				evictGroup, maxN = g, n
			}
		}
		if evictGroup < 0 {
			break // all groups are singletons; the budget is spoken for
		}
		for j := len(out) - 1; j >= 0; j-- {
			if int(cands[out[j]].top) == evictGroup {
				count[evictGroup]--
				delete(inBatch, out[j])
				out[j] = best
				inBatch[best] = true
				count[name]++
				break
			}
		}
	}
	return out
}
