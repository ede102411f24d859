// Package assertion implements the core abstraction of the paper: model
// assertions — arbitrary functions over a model's inputs and outputs that
// return a severity score indicating when an error may be occurring
// (Kang et al., MLSys 2020, §2).
//
// An assertion receives a window of recent (input, output) samples, so it
// can express temporal checks such as "an object should not flicker in and
// out of the video" as well as single-sample checks such as "LIDAR and
// camera detections should agree". It returns a continuous severity score;
// by convention 0 means the assertion abstains (no error indicated) and
// larger values indicate more severe errors. Boolean assertions return only
// 0 and 1. Severity scores need not be calibrated: every algorithm in this
// repository uses only their relative order (paper §2.1).
package assertion

import (
	"fmt"
	"math"
	"sync"
)

// Sample is one observation flowing through a deployed model: the model's
// input and output for a single inference, plus positioning metadata used
// by temporal assertions.
type Sample struct {
	// Index is the caller-assigned position of the sample in its stream
	// (e.g. a frame number or dataset index).
	Index int
	// Stream identifies which deployment stream the sample belongs to
	// (e.g. a camera or patient id). A MonitorPool routes samples to
	// shards by this key so each stream keeps its own window order; the
	// empty string is a valid (default) stream.
	Stream string
	// Time is the sample's timestamp in seconds. Temporal consistency
	// assertions (paper §4) are expressed over this clock.
	Time float64
	// Input is the model input (opaque to the library).
	Input any
	// Output is the model output (opaque to the library). Assertions
	// type-assert it to their domain's output type.
	Output any
}

// Assertion is a model assertion. Implementations must be safe for
// concurrent use by multiple goroutines if they are registered with a
// Monitor that is used concurrently.
type Assertion interface {
	// Name returns the assertion's unique identifier within a registry.
	Name() string
	// Check evaluates the assertion on a window of recent samples,
	// ordered by increasing Index. The last element is the sample that
	// triggered evaluation. It returns a severity score where 0 means
	// abstain and larger values mean more severe suspected errors. The
	// runtime reads a negative or NaN severity as 0 (did not fire) and
	// +Inf as math.MaxFloat64, so every recorded severity is finite.
	//
	// The window slice is only valid for the duration of the call —
	// monitors reuse its backing array across samples — so an assertion
	// that retains samples across calls must copy them.
	//
	// An assertion whose Check re-derives the same per-sample facts for
	// every window position may also implement Stateful: a Monitor then
	// evaluates it through per-monitor State instead of calling Check.
	Check(window []Sample) float64
}

// Stateful is the optional incremental form of an Assertion. NewMonitor
// builds one State per Stateful assertion in its suite and evaluates the
// assertion through it; every other caller (Suite.Evaluate, offline
// experiments) keeps calling Check.
type Stateful interface {
	Assertion
	// NewState returns fresh per-monitor state holding no samples.
	NewState() State
}

// State is one monitor's evaluation state for a Stateful assertion. The
// contract is "same answer as Check": State.Check(window) returns exactly
// what the assertion's own Check(window) returns. A Monitor calls it under
// its lock once per observed sample, with a window whose last element is
// that sample and whose earlier elements are the samples it saw before,
// so a State may keep what it derived from each retained sample and
// derive only the newest one's. It assumes a sample's Output does not
// change once observed.
type State interface {
	// Check evaluates the window ending at the newest observed sample.
	Check(window []Sample) float64
	// Reset forgets every retained sample, as Monitor.Reset clears the
	// window.
	Reset()
}

// Func adapts a plain function into an Assertion, mirroring OMG's
// AddAssertion(func) API where arbitrary callables are registered.
type Func struct {
	AssertionName string
	Fn            func(window []Sample) float64
}

// Name implements Assertion.
func (f Func) Name() string { return f.AssertionName }

// Check implements Assertion.
func (f Func) Check(window []Sample) float64 {
	if f.Fn == nil {
		return 0
	}
	return f.Fn(window)
}

// New returns an Assertion with the given name evaluating fn.
func New(name string, fn func(window []Sample) float64) Assertion {
	return Func{AssertionName: name, Fn: fn}
}

// NewBool returns a Boolean assertion: severity 1 when fn reports a
// violation, 0 otherwise.
func NewBool(name string, fn func(window []Sample) bool) Assertion {
	return Func{AssertionName: name, Fn: func(window []Sample) float64 {
		if fn(window) {
			return 1
		}
		return 0
	}}
}

// Meta carries optional descriptive metadata for a registered assertion,
// used by reporting (Table 1) and by collaborative QA workflows where many
// developers contribute to a shared assertion database (paper §2.3).
type Meta struct {
	// Description is a one-line human-readable summary.
	Description string
	// Domain names the deployment the assertion belongs to (e.g.
	// "video-analytics", "av", "ecg", "tv-news").
	Domain string
	// Kind classifies the assertion per the paper's taxonomy (Appendix B):
	// "consistency", "domain-knowledge", "perturbation", "input-validation".
	Kind string
	// Author records who contributed the assertion to the database.
	Author string
}

// Registered pairs an assertion with its metadata.
type Registered struct {
	Assertion Assertion
	Meta      Meta
}

// Registry is the assertion database: a named collection of assertions
// that ML developers add to collaboratively. It is safe for concurrent
// use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Registered
	order   []string
}

// NewRegistry returns an empty assertion database.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]Registered)}
}

// Add registers an assertion with empty metadata. It is the Go analogue of
// OMG's AddAssertion(func). It returns an error if an assertion with the
// same name is already registered or the assertion is nil.
func (r *Registry) Add(a Assertion) error {
	return r.AddWithMeta(a, Meta{})
}

// AddWithMeta registers an assertion together with descriptive metadata.
func (r *Registry) AddWithMeta(a Assertion, meta Meta) error {
	if a == nil {
		return fmt.Errorf("assertion: cannot register nil assertion")
	}
	name := a.Name()
	if name == "" {
		return fmt.Errorf("assertion: cannot register assertion with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.entries[name]; exists {
		return fmt.Errorf("assertion: %q already registered", name)
	}
	r.entries[name] = Registered{Assertion: a, Meta: meta}
	r.order = append(r.order, name)
	return nil
}

// MustAdd is Add that panics on error, for registration at program start.
func (r *Registry) MustAdd(a Assertion) {
	if err := r.Add(a); err != nil {
		panic(err)
	}
}

// Get returns the named assertion's registration.
func (r *Registry) Get(name string) (Registered, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Names returns the registered assertion names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Suite returns a stable evaluation view of the current registry contents.
// The suite's assertion order is the registration order; subsequent
// registry mutations do not affect a previously obtained suite.
func (r *Registry) Suite() *Suite {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Suite{}
	for _, name := range r.order {
		s.assertions = append(s.assertions, r.entries[name].Assertion)
	}
	return s
}

// Suite is an ordered, immutable list of assertions used for batch
// evaluation. The order defines the meaning of severity vectors: element i
// of a Vector is the severity of assertion i.
type Suite struct {
	assertions []Assertion
}

// NewSuite builds a suite directly from assertions (registration order is
// the argument order). Nil assertions are skipped.
func NewSuite(assertions ...Assertion) *Suite {
	s := &Suite{}
	for _, a := range assertions {
		if a != nil {
			s.assertions = append(s.assertions, a)
		}
	}
	return s
}

// Len returns the number of assertions in the suite.
func (s *Suite) Len() int { return len(s.assertions) }

// Names returns the assertion names in suite order.
func (s *Suite) Names() []string {
	out := make([]string, len(s.assertions))
	for i, a := range s.assertions {
		out[i] = a.Name()
	}
	return out
}

// Assertions returns the suite's assertions in order. Callers must not
// modify the returned slice.
func (s *Suite) Assertions() []Assertion { return s.assertions }

// Vector is a severity vector: one entry per assertion in a Suite, in
// suite order. It is the context ("feature vector x_i") used by the BAL
// bandit (paper §3).
type Vector []float64

// Fired reports whether any assertion abstained from abstaining, i.e. any
// severity is positive.
func (v Vector) Fired() bool {
	for _, s := range v {
		if s > 0 {
			return true
		}
	}
	return false
}

// Max returns the maximum severity and its index; (-1, 0) for an empty
// vector.
func (v Vector) Max() (idx int, severity float64) {
	idx = -1
	for i, s := range v {
		if i == 0 || s > severity {
			severity = s
			idx = i
		}
	}
	if idx == -1 {
		return -1, 0
	}
	return idx, v[idx]
}

// Evaluate runs every assertion in the suite on the window and returns the
// severity vector.
func (s *Suite) Evaluate(window []Sample) Vector {
	return s.EvaluateInto(nil, window)
}

// EvaluateInto is Evaluate writing into dst: when dst has capacity for one
// entry per assertion its backing array is reused, so a caller evaluating
// in a loop (the monitor hot path, one vector per shard worker) allocates
// nothing per sample. It returns the filled vector, which aliases dst
// whenever dst was large enough.
func (s *Suite) EvaluateInto(dst Vector, window []Sample) Vector {
	return s.evaluateInto(dst, window, nil)
}

// evaluateInto is EvaluateInto with states[i], where set, answering for
// assertion i (a Monitor's Stateful assertions). Each clamped severity is
// counted in omg_assertion_errors_total; a 0 or -0 severity is an
// abstention, not an error, and the count runs only on the clamp
// branches.
func (s *Suite) evaluateInto(dst Vector, window []Sample, states []State) Vector {
	if cap(dst) < len(s.assertions) {
		dst = make(Vector, len(s.assertions))
	}
	dst = dst[:len(s.assertions)]
	for i, a := range s.assertions {
		var sev float64
		if i < len(states) && states[i] != nil {
			sev = states[i].Check(window)
		} else {
			sev = a.Check(window)
		}
		if !(sev > 0) {
			// Negative and NaN severities are clamped: the contract is
			// [0, inf), and a NaN reads as "did not fire".
			if sev != 0 {
				if sev < 0 {
					assertionErrors.Add("negative", 1)
				} else {
					assertionErrors.Add("nan", 1)
				}
			}
			sev = 0
		} else if sev > math.MaxFloat64 {
			// +Inf is the largest finite severity, which every encoder
			// and statistic downstream can represent.
			assertionErrors.Add("inf", 1)
			sev = math.MaxFloat64
		}
		dst[i] = sev
	}
	return dst
}
