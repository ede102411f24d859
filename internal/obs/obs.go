// Package obs is the pipeline's self-observation layer: fixed-bucket,
// lock-free, zero-allocation latency histograms and queue-depth gauges,
// exposed in the Prometheus text format alongside Go runtime statistics.
//
// The monitor is only trustworthy at fleet scale if the monitor itself is
// monitored — but the instrumented paths include the zero-allocation
// observe hot path, so the instruments must cost nothing they do not have
// to: a Histogram is a fixed array of atomic counters (Record is wait-free
// and performs no allocation), the hottest call sites gate their clock
// reads through a Sampler so only one in N samples pays for time.Now, and
// SetEnabled(false) turns every instrument into a single atomic load for
// benchmark baselines.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// disabled flips the whole package off: Record and StartIf become a
// single atomic load. It exists so the benchmark harness
// (benchmark/layers.go) and tests can price instrumented against
// uninstrumented hot paths inside one binary.
var disabled atomic.Bool

// SetEnabled turns instrumentation on (the default) or off process-wide.
func SetEnabled(on bool) { disabled.Store(!on) }

// Histogram buckets are powers of two in nanoseconds: the first bucket
// holds observations <= 128ns, each next one doubles, and the last finite
// bucket holds ~73 minutes. Durations beyond that land only in +Inf.
const (
	histMinExp  = 7  // first upper bound: 2^7 ns = 128ns
	histMaxExp  = 42 // last finite upper bound: 2^42 ns ≈ 73min
	histBuckets = histMaxExp - histMinExp + 1
)

// bucketIdx maps a non-negative duration in nanoseconds to its bucket:
// the smallest power of two >= ns, clamped into [histMinExp, histMaxExp];
// anything larger goes to the overflow (+Inf-only) slot.
func bucketIdx(ns int64) int {
	if ns <= 1<<histMinExp {
		return 0
	}
	e := bits.Len64(uint64(ns - 1))
	if e > histMaxExp {
		return histBuckets
	}
	return e - histMinExp
}

// bucketLe returns bucket i's upper bound in seconds.
func bucketLe(i int) float64 {
	return math.Ldexp(1, histMinExp+i) / 1e9
}

// Histogram is a fixed-bucket (log2) latency histogram over lock-free
// atomic counters. Record is wait-free and allocation-free, so it may sit
// on the observe hot path; the exposer derives _count from a consistent
// snapshot of the buckets so a scrape racing Record still renders a
// well-formed Prometheus histogram.
type Histogram struct {
	name   string
	help   string
	labels string // rendered inside {...} before le; "" for none

	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets + 1]atomic.Uint64
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	if disabled.Load() {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.sum.Add(ns)
	h.buckets[bucketIdx(ns)].Add(1)
}

// StartIf returns the clock when sampled is true and instrumentation is
// enabled, and the zero time otherwise — the gate hot paths use so an
// unsampled call never reads the clock. Pair with Done.
func (h *Histogram) StartIf(sampled bool) time.Time {
	if !sampled || disabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// Done records the time since a StartIf stamp; a zero start (unsampled or
// disabled) is a no-op.
func (h *Histogram) Done(start time.Time) {
	if start.IsZero() {
		return
	}
	h.Record(time.Since(start))
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// snapshot copies the bucket counters once; every derived figure (count,
// cumulative buckets) comes from this one consistent read.
func (h *Histogram) snapshot() (counts [histBuckets + 1]uint64, total uint64) {
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return counts, total
}

// HistogramVec is a histogram family keyed by one label (e.g. the batch
// source). Children are created on first use; the family is capped at
// maxVecChildren distinct values, beyond which observations land on the
// "_overflow" child so a label-cardinality explosion cannot eat the
// scrape page.
type HistogramVec struct {
	name  string
	help  string
	label string

	mu sync.RWMutex
	m  map[string]*Histogram
}

// maxVecChildren bounds a HistogramVec's label cardinality.
const maxVecChildren = 64

// With returns the child histogram for the given label value, creating it
// on first use (or the shared overflow child once the family is full).
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.m[value]; ok {
		return h
	}
	if len(v.m) >= maxVecChildren {
		if h, ok = v.m["_overflow"]; ok {
			return h
		}
		value = "_overflow"
	}
	h = &Histogram{
		name:   v.name,
		help:   v.help,
		labels: v.label + `="` + EscapeLabelValue(value) + `"`,
	}
	v.m[value] = h
	return h
}

// CounterVec is a counter family keyed by one label whose values are all
// named at registration, so every series is on the page from zero — a
// dashboard can tell "none yet" from "not exported".
type CounterVec struct {
	name   string
	help   string
	label  string
	values []string
	counts []atomic.Int64
}

// Add adds n to the child for the given label value, which must be one
// the family was registered with.
func (v *CounterVec) Add(value string, n int64) {
	for i, name := range v.values {
		if name == value {
			v.counts[i].Add(n)
			return
		}
	}
	panic(fmt.Sprintf("obs: counter %s has no %s=%q child", v.name, v.label, value))
}

// EscapeLabelValue escapes a Prometheus label value per the exposition
// format: backslash, double quote and newline. A value with none of them
// is returned as is.
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// Sampler gates a hot path's clock reads down to one in N calls. It is
// NOT safe for concurrent use on its own: embed it under the path's
// existing serialisation (a monitor's evalMu, a store's mutex, a single
// worker goroutine). The zero value samples every call.
type Sampler struct {
	mask uint64
	tick uint64
}

// NewSampler returns a sampler admitting roughly one in every calls,
// rounded up to a power of two. every <= 1 samples everything.
func NewSampler(every int) Sampler {
	if every <= 1 {
		return Sampler{}
	}
	return Sampler{mask: uint64(1)<<bits.Len64(uint64(every-1)) - 1}
}

// Next reports whether this call is sampled.
func (s *Sampler) Next() bool {
	s.tick++
	return s.tick&s.mask == 0
}

// AtomicSampler is Sampler for multi-producer paths (e.g. a pool's
// Enqueue): the tick is a shared atomic counter. The zero value samples
// every call.
type AtomicSampler struct {
	mask uint64
	tick atomic.Uint64
}

// NewAtomicSampler returns an AtomicSampler admitting roughly one in
// every calls, rounded up to a power of two.
func NewAtomicSampler(every int) *AtomicSampler {
	s := &AtomicSampler{}
	if every > 1 {
		s.mask = uint64(1)<<bits.Len64(uint64(every-1)) - 1
	}
	return s
}

// Next reports whether this call is sampled.
func (s *AtomicSampler) Next() bool {
	return s.tick.Add(1)&s.mask == 0
}

// hotSampleEvery is the default sampling rate instrumented hot paths
// (Monitor.Observe, SegmentStore.Append, pool queue wait) snapshot at
// construction: one in 64 operations reads the clock.
var hotSampleEvery atomic.Int64

func init() { hotSampleEvery.Store(64) }

// SetHotSampleEvery tunes how often the hottest instrumented paths read
// the clock (rounded up to a power of two; 1 samples every operation).
// It affects monitors, pools and stores created afterwards.
func SetHotSampleEvery(every int) {
	if every < 1 {
		every = 1
	}
	hotSampleEvery.Store(int64(every))
}

// HotSampler returns a Sampler at the current hot-path sampling rate.
func HotSampler() Sampler { return NewSampler(int(hotSampleEvery.Load())) }

// HotAtomicSampler returns an AtomicSampler at the current hot-path
// sampling rate.
func HotAtomicSampler() *AtomicSampler { return NewAtomicSampler(int(hotSampleEvery.Load())) }

// metric is anything the registry can expose.
type metric interface {
	metricName() string
	expose(w *strings.Builder)
}

// Registry holds an ordered set of named metrics and renders them in the
// Prometheus text exposition format. Registration is for process-lifetime
// instruments: registering a name twice panics.
type Registry struct {
	mu      sync.Mutex
	ordered []metric
	byName  map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

// defaultRegistry is the process-wide registry package-level instruments
// register into and both /metrics exposers render.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

func (r *Registry) register(name string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.byName[name] = true
	r.ordered = append(r.ordered, m)
}

// NewHistogram registers and returns a histogram.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help}
	r.register(name, h)
	return h
}

// NewHistogramVec registers and returns a histogram family keyed by one
// label.
func (r *Registry) NewHistogramVec(name, help, label string) *HistogramVec {
	v := &HistogramVec{name: name, help: help, label: label, m: make(map[string]*Histogram)}
	r.register(name, v)
	return v
}

// NewCounterVec registers and returns a counter family keyed by one
// label, with one child per value.
func (r *Registry) NewCounterVec(name, help, label string, values ...string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label, values: values, counts: make([]atomic.Int64, len(values))}
	r.register(name, v)
	return v
}

// NewGaugeFunc registers a gauge whose value is read from fn at scrape
// time — the natural shape for queue depths and pool sizes.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, &funcMetric{name: name, help: help, kind: "gauge", fn: fn})
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time. fn must be monotone non-decreasing.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(name, &funcMetric{name: name, help: help, kind: "counter", fn: fn})
}

// funcMetric is a scrape-time counter or gauge.
type funcMetric struct {
	name string
	help string
	kind string
	fn   func() float64
}

func (f *funcMetric) metricName() string { return f.name }

func (h *Histogram) metricName() string    { return h.name }
func (v *HistogramVec) metricName() string { return v.name }
func (v *CounterVec) metricName() string   { return v.name }
