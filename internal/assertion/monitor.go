package assertion

import (
	"sync"
	"sync/atomic"

	"omg/internal/obs"
)

// Violation is one firing of one assertion on one sample: the unit the
// runtime monitor records and that corrective actions receive.
type Violation struct {
	// Assertion is the name of the assertion that fired.
	Assertion string `json:"assertion"`
	// Stream is the Stream key of the sample that triggered evaluation.
	Stream string `json:"stream,omitempty"`
	// SampleIndex is the Index of the sample that triggered evaluation.
	SampleIndex int `json:"sample_index"`
	// Time is the triggering sample's timestamp in seconds.
	Time float64 `json:"time"`
	// Severity is the assertion's returned score (> 0).
	Severity float64 `json:"severity"`
	// IngestUnix is the wall-clock second a collector ingested this
	// violation, stamped on the ingest path (zero for violations recorded
	// in-process). Retention's max-age policy keys on it; violations
	// without a stamp are exempt from age eviction.
	IngestUnix int64 `json:"ingest_unix,omitempty"`
	// ObservedUnixNano is the wall-clock nanosecond an exporting sink
	// accepted this violation from the observe path (zero for violations
	// that never left the process). The collector subtracts it from its
	// ingest clock to chart per-source end-to-end latency
	// (omg_collector_e2e_age_seconds).
	ObservedUnixNano int64 `json:"observed_unix_nano,omitempty"`
}

// Action is a corrective callback invoked when an assertion fires at or
// above a configured severity threshold — e.g. logging unexpected behaviour
// or shutting down an autopilot (paper §1, "runtime monitoring").
type Action func(v Violation)

// actionSpec binds an action to its trigger condition.
type actionSpec struct {
	assertion string // empty = any assertion
	threshold float64
	action    Action
}

// Monitor is OMG's runtime-monitoring component. It is registered as a
// callback after model execution: each call to Observe delivers the
// model's input and output, the monitor maintains a sliding window of
// recent samples, evaluates every assertion in its suite, records
// violations, and triggers corrective actions.
//
// A Monitor is safe for concurrent use; samples are serialised through an
// internal lock since window semantics require a total order.
//
// Each Stateful assertion in the suite is evaluated through its own
// per-monitor State (see Stateful), which answers exactly what the
// assertion's Check would for the same window; Reset resets it with the
// window.
//
// The observe path is allocation-free in the steady state: the window
// lives in a fixed ring buffer, assertions receive a reused scratch view
// of it, and the severity vector returned by Observe is reused across
// calls. The returned Vector and the window handed to Assertion.Check are
// therefore only valid until the next Observe (or Reset) on this monitor
// — callers and assertions that retain them must copy, and concurrent
// observers of one monitor must not use the returned vector at all (see
// Observe).
type Monitor struct {
	suite *Suite
	// names caches suite.Names() once: the hot path reads assertion names
	// per firing without re-allocating the slice per sample.
	names      []string
	windowSize int

	// evalMu serialises the whole observe path — ring update, evaluation,
	// recording, actions — which is what makes the ring, scratch window
	// and severity vector reusable. Action registration does not take it,
	// so an action may register further actions without deadlocking.
	evalMu  sync.Mutex
	ring    []Sample // fixed backing array of windowSize samples
	head    int      // index of the oldest retained sample once full
	n       int      // retained sample count, <= windowSize
	scratch []Sample // in-order window view handed to assertions when the ring has wrapped
	vec     Vector   // reused severity vector returned by Observe
	// states holds, per suite position, the Stateful assertion's State;
	// nil entries are evaluated through Check.
	states []State

	recorder *Recorder
	observed atomic.Int64

	// obsSample gates the observe histogram's clock reads; it is mutated
	// under evalMu, which is what makes the non-atomic sampler safe here.
	obsSample obs.Sampler

	// actions is a copy-on-write snapshot: registration (rare) swaps in a
	// fresh slice under actMu, the observe path (hot) reads the current
	// snapshot with one atomic load and no copying.
	actMu   sync.Mutex
	actions atomic.Pointer[[]actionSpec]
}

// MonitorOption configures a Monitor.
type MonitorOption func(*Monitor)

// WithWindowSize sets how many recent samples are retained for temporal
// assertions (default 16, minimum 1).
func WithWindowSize(n int) MonitorOption {
	return func(m *Monitor) {
		if n >= 1 {
			m.windowSize = n
		}
	}
}

// WithRecorder attaches a recorder; by default a fresh in-memory recorder
// is created.
func WithRecorder(r *Recorder) MonitorOption {
	return func(m *Monitor) {
		if r != nil {
			m.recorder = r
		}
	}
}

// NewMonitor builds a monitor over the given suite.
func NewMonitor(suite *Suite, opts ...MonitorOption) *Monitor {
	m := &Monitor{
		suite:      suite,
		names:      suite.Names(),
		windowSize: 16,
		recorder:   NewRecorder(0),
	}
	for _, o := range opts {
		o(m)
	}
	m.ring = make([]Sample, m.windowSize)
	m.scratch = make([]Sample, m.windowSize)
	m.vec = make(Vector, suite.Len())
	m.states = make([]State, suite.Len())
	for i, a := range suite.Assertions() {
		if sa, ok := a.(Stateful); ok {
			m.states[i] = sa.NewState()
		}
	}
	m.actions.Store(&[]actionSpec{})
	m.obsSample = obs.HotSampler()
	return m
}

// OnViolation registers an action triggered whenever any assertion fires
// with severity >= threshold.
func (m *Monitor) OnViolation(threshold float64, a Action) {
	m.addAction(actionSpec{threshold: threshold, action: a})
}

// OnAssertion registers an action triggered when the named assertion fires
// with severity >= threshold.
func (m *Monitor) OnAssertion(name string, threshold float64, a Action) {
	m.addAction(actionSpec{assertion: name, threshold: threshold, action: a})
}

// addAction appends spec copy-on-write: concurrent Observe calls keep
// reading the previous snapshot, the next Observe sees the new one.
func (m *Monitor) addAction(spec actionSpec) {
	m.actMu.Lock()
	defer m.actMu.Unlock()
	old := *m.actions.Load()
	next := make([]actionSpec, len(old)+1)
	copy(next, old)
	next[len(old)] = spec
	m.actions.Store(&next)
}

// push appends s to the window ring, overwriting the oldest sample in
// place once the ring is full.
func (m *Monitor) push(s Sample) {
	if m.n < len(m.ring) {
		m.ring[(m.head+m.n)%len(m.ring)] = s
		m.n++
		return
	}
	m.ring[m.head] = s
	m.head++
	if m.head == len(m.ring) {
		m.head = 0
	}
}

// window returns the retained samples in arrival order. Until the ring
// wraps the backing array itself is in order and is returned directly;
// afterwards the two ring segments are linearised into the reused scratch
// slice.
func (m *Monitor) window() []Sample {
	if m.head == 0 {
		return m.ring[:m.n]
	}
	w := m.scratch[:m.n]
	k := copy(w, m.ring[m.head:])
	copy(w[k:], m.ring[:m.head])
	return w
}

// Observe delivers one (input, output) sample to the monitor: the sample
// joins the sliding window, all assertions are evaluated, violations are
// recorded, matching actions run synchronously, and the sample's severity
// vector is returned.
//
// The returned vector is reused by the next Observe call on this monitor:
// a caller that serialises its own observes (the normal pattern — one
// producer per stream, as the pool's shard workers are) may read it until
// its next Observe, and must copy it to retain it longer. Goroutines
// calling Observe on the same monitor concurrently must not use the
// returned vector at all: another call may already be overwriting it by
// the time Observe returns.
//
// Actions run after the monitor's internal lock is released (as they did
// before the ring rewrite), so an action may call back into the monitor —
// including Observe and Reset — without deadlocking.
func (m *Monitor) Observe(s Sample) Vector {
	vec, fired, actions := m.observeLocked(s)
	for _, v := range fired {
		for _, spec := range actions {
			if spec.assertion != "" && spec.assertion != v.Assertion {
				continue
			}
			if v.Severity >= spec.threshold {
				spec.action(v)
			}
		}
	}
	return vec
}

// observeLocked is the serialised half of Observe: window update,
// evaluation and recording under evalMu. Violations that must reach an
// action are collected and returned so dispatch happens outside the lock;
// the collection allocates only when an assertion fired AND actions are
// registered — the quiet path stays allocation-free.
func (m *Monitor) observeLocked(s Sample) (Vector, []Violation, []actionSpec) {
	m.evalMu.Lock()
	defer m.evalMu.Unlock()
	start := observeHist.StartIf(m.obsSample.Next())
	m.push(s)
	m.observed.Add(1)

	vec := m.suite.evaluateInto(m.vec, m.window(), m.states)
	m.vec = vec
	var fired []Violation
	var actions []actionSpec
	for i, sev := range vec {
		if sev <= 0 {
			continue
		}
		v := Violation{
			Assertion:   m.names[i],
			Stream:      s.Stream,
			SampleIndex: s.Index,
			Time:        s.Time,
			Severity:    sev,
		}
		m.recorder.Record(v)
		if actions == nil {
			actions = *m.actions.Load()
		}
		if len(actions) > 0 {
			fired = append(fired, v)
		}
	}
	observeHist.Done(start)
	return vec, fired, actions
}

// Observed returns the number of samples seen so far.
func (m *Monitor) Observed() int {
	return int(m.observed.Load())
}

// Recorder returns the monitor's recorder for querying recorded
// violations.
func (m *Monitor) Recorder() *Recorder { return m.recorder }

// Reset clears the sliding window (e.g. at a stream boundary) and every
// assertion State without clearing recorded violations. The ring's
// backing array is retained, so the first window after a stream boundary
// costs no re-growth; retained sample payloads are released to the
// garbage collector.
func (m *Monitor) Reset() {
	m.evalMu.Lock()
	defer m.evalMu.Unlock()
	clear(m.ring)
	clear(m.scratch)
	m.head, m.n = 0, 0
	for _, st := range m.states {
		if st != nil {
			st.Reset()
		}
	}
}
