// Package omg is the public API of the OMG model-assertion library, a Go
// reproduction of "Model Assertions for Monitoring and Improving ML
// Models" (Kang, Raghavan, Bailis, Zaharia — MLSys 2020).
//
// OMG ("OMG Model Guardian") lets ML engineering teams register model
// assertions — arbitrary functions over a model's inputs and outputs that
// return a severity score when an error may be occurring — and use them
// for:
//
//   - runtime monitoring: a Monitor evaluates every registered assertion
//     after each model invocation, records violations (optionally as a
//     JSONL stream), and triggers corrective actions;
//   - active learning: the BAL bandit (Algorithm 2 of the paper) selects
//     which assertion-flagged data points to label each round;
//   - weak supervision: consistency assertions (§4 of the paper) are
//     generated from Id/Attrs/T descriptions of the model's output and
//     propose corrected labels for failing outputs.
//
// The facade re-exports the stable core from the internal packages; the
// experiment harnesses reproducing the paper's tables and figures live in
// internal/experiments and are driven by cmd/omg-bench and the benchmark
// suite.
package omg

import (
	"io"

	"omg/internal/assertion"
	"omg/internal/bandit"
	"omg/internal/consistency"
	"omg/internal/export"
	"omg/internal/labelsvc"
)

// Core assertion types.
type (
	// Sample is one (input, output) observation of a deployed model.
	Sample = assertion.Sample
	// Assertion is a model assertion: Name plus Check(window) severity.
	Assertion = assertion.Assertion
	// Meta is descriptive metadata attached to a registered assertion.
	Meta = assertion.Meta
	// Registry is the assertion database shared by a team.
	Registry = assertion.Registry
	// Suite is an ordered evaluation view of assertions.
	Suite = assertion.Suite
	// Vector is a severity vector (one entry per suite assertion).
	Vector = assertion.Vector
	// Monitor is the runtime monitoring component.
	Monitor = assertion.Monitor
	// MonitorOption configures a Monitor.
	MonitorOption = assertion.MonitorOption
	// MonitorPool is the sharded, pipelined runtime-monitoring component:
	// samples are routed by Sample.Stream to per-stream monitors through
	// one asynchronous path, Enqueue/ObserveBatch onto bounded queues
	// drained by one worker per shard, all recording into one Recorder.
	// The synchronous surface is Monitor.Observe.
	MonitorPool = assertion.MonitorPool
	// PoolOption configures a MonitorPool.
	PoolOption = assertion.PoolOption
	// Violation is one recorded assertion firing.
	Violation = assertion.Violation
	// Recorder stores violations and aggregate statistics.
	Recorder = assertion.Recorder

	// Sink is a pluggable violation backend fed by a Recorder.
	Sink = assertion.Sink
	// DropCounter is implemented by sinks that count discarded violations.
	DropCounter = assertion.DropCounter
	// JSONLSink is the buffered asynchronous JSONL backend.
	JSONLSink = assertion.JSONLSink
	// MultiSink fans violations out to several backends with independent
	// error tracking.
	MultiSink = assertion.MultiSink

	// ViolationStore is the pluggable storage seam under each collector
	// shard: append, query, stats, compaction, replace. MemStore is the
	// in-memory implementation; internal/store's SegmentStore is the
	// crash-recoverable on-disk one (omg-server -store=disk).
	ViolationStore = assertion.ViolationStore
	// MemStore is the bounded in-memory ViolationStore a Recorder records
	// into.
	MemStore = assertion.MemStore
	// StoreQuery selects violations by assertion and stream with a
	// newest-N limit.
	StoreQuery = assertion.StoreQuery

	// HTTPSink exports violation batches to an omg-server collector over
	// HTTP with bounded queueing, coalescing, retries and drop counting.
	HTTPSink = export.HTTPSink
	// HTTPSinkConfig configures an HTTPSink.
	HTTPSinkConfig = export.HTTPSinkConfig
	// Collector ingests exported violation batches and serves queries; it
	// is the engine behind cmd/omg-server.
	Collector = export.Collector
	// CollectorConfig shapes a Collector: shard count, retention bounds,
	// store backend and label loop.
	CollectorConfig = export.CollectorConfig
	// BatchCodec is the pluggable wire-codec seam: it encodes a batch to
	// request bytes and decodes them back, selected by name on the sender
	// (HTTPSinkConfig.Wire) and by Content-Type on the collector.
	BatchCodec = export.BatchCodec
)

// Wire codec names (HTTPSinkConfig.Wire).
const (
	CodecJSON   = export.CodecJSON
	CodecBinary = export.CodecBinary
)

// WireVersion is the version stamped on every exported batch.
const WireVersion = export.WireVersion

// MinWireVersion is the oldest wire version a collector still accepts,
// so mixed-version fleets keep exporting across rollouts.
const MinWireVersion = export.MinWireVersion

// TailPath is the collector's SSE live-tail endpoint.
const TailPath = export.TailPath

// Collector label-loop endpoints (paper §3 served over HTTP): pullers
// lease budgeted candidate batches from LabelsNextPath, post labels back
// to LabelsFeedbackPath, and read loop progress from LabelsStatsPath.
const (
	LabelsNextPath     = export.LabelsNextPath
	LabelsFeedbackPath = export.LabelsFeedbackPath
	LabelsStatsPath    = export.LabelsStatsPath
)

// Collector-served active-learning loop: the label service assembles
// per-sample candidates from the retained violations, ranks them with a
// crash-recoverable bandit selector, and leases batches to pullers.
type (
	// LabelConfig shapes the label service via CollectorConfig.Labels:
	// selector kind, seed, budgets, lease TTL, state path.
	LabelConfig = labelsvc.Config
	// LabelFeedback is one human label posted back to the loop.
	LabelFeedback = labelsvc.Feedback
	// LabelStats summarises the loop's progress.
	LabelStats = labelsvc.Stats
	// LabelsNextResponse is the JSON body GET /v1/labels/next serves.
	LabelsNextResponse = export.LabelsNextResponse
	// LabelsFeedbackRequest is the JSON body POST /v1/labels/feedback
	// accepts.
	LabelsFeedbackRequest = export.LabelsFeedbackRequest
)

// ErrSinkClosed is returned by a Sink's Record method after Close.
var ErrSinkClosed = assertion.ErrSinkClosed

// NewJSONLSink returns an asynchronous JSONL sink over w with a bounded
// queue of 1024 violations.
func NewJSONLSink(w io.Writer) *JSONLSink { return assertion.NewJSONLSink(w) }

// NewMultiSink returns a sink fanning out to every given backend.
func NewMultiSink(sinks ...Sink) *MultiSink { return assertion.NewMultiSink(sinks...) }

// NewHTTPSink returns a sink exporting violation batches to the collector
// at cfg.BaseURL.
func NewHTTPSink(cfg HTTPSinkConfig) (*HTTPSink, error) { return export.NewHTTPSink(cfg) }

// OpenCollector returns a collector shaped by cfg — sharded ingest,
// retention policy, live tail, label loop — with its violation store
// chosen by cfg.Store: StoreMem (the default) or StoreDisk, which recovers
// and appends to crash-recoverable segment files under cfg.DataDir. Serve
// its Handler over HTTP to accept exported batches; Close it when done.
func OpenCollector(cfg CollectorConfig) (*Collector, error) { return export.OpenCollector(cfg) }

// Store backends for CollectorConfig.Store / omg-server -store.
const (
	StoreMem  = export.StoreMem
	StoreDisk = export.StoreDisk
)

// ShardFor routes a key to one of n shards with FNV-1a — the routing seam
// MonitorPool uses for streams and the collector uses for batch sources.
func ShardFor(key string, n int) int { return assertion.ShardFor(key, n) }

// NewAssertion adapts a severity function into an Assertion, the analogue
// of OMG's AddAssertion(func) for arbitrary callables.
func NewAssertion(name string, fn func(window []Sample) float64) Assertion {
	return assertion.New(name, fn)
}

// NewBoolAssertion adapts a Boolean predicate into an Assertion
// (severity 1 when the predicate reports a violation).
func NewBoolAssertion(name string, fn func(window []Sample) bool) Assertion {
	return assertion.NewBool(name, fn)
}

// NewRegistry returns an empty assertion database.
func NewRegistry() *Registry { return assertion.NewRegistry() }

// NewMonitor builds a runtime monitor over a suite.
func NewMonitor(suite *Suite, opts ...MonitorOption) *Monitor {
	return assertion.NewMonitor(suite, opts...)
}

// NewMonitorPool builds a sharded runtime monitor over a suite and starts
// its worker goroutines; Close it when done with the async path.
func NewMonitorPool(suite *Suite, opts ...PoolOption) *MonitorPool {
	return assertion.NewMonitorPool(suite, opts...)
}

// ErrPoolClosed is returned by a MonitorPool's async ingestion methods
// after Close.
var ErrPoolClosed = assertion.ErrPoolClosed

// NewRecorder returns a violation recorder keeping at most limit entries
// in memory (0 = unbounded).
func NewRecorder(limit int) *Recorder { return assertion.NewRecorder(limit) }

// WithWindowSize sets the monitor's sliding-window length.
func WithWindowSize(n int) MonitorOption { return assertion.WithWindowSize(n) }

// WithShards sets a pool's shard count (default GOMAXPROCS).
func WithShards(n int) PoolOption { return assertion.WithShards(n) }

// WithQueueDepth sets a pool's per-shard async queue capacity.
func WithQueueDepth(n int) PoolOption { return assertion.WithQueueDepth(n) }

// WithPoolWindowSize sets each stream monitor's sliding-window length.
func WithPoolWindowSize(n int) PoolOption { return assertion.WithPoolWindowSize(n) }

// WithPoolRecorder sets the recorder every stream of a pool records into.
func WithPoolRecorder(r *Recorder) PoolOption { return assertion.WithPoolRecorder(r) }

// WithPoolSink attaches a pool-owned violation backend to the pool's
// recorder; the pool flushes it on Flush and closes it on Close.
func WithPoolSink(s Sink) PoolOption { return assertion.WithPoolSink(s) }

// Consistency-assertion API (paper §4).
type (
	// ConsistencyConfig describes a consistency assertion via Id, Attrs
	// and the temporal threshold T.
	ConsistencyConfig[Y any] = consistency.Config[Y]
	// ConsistencyGenerator holds the generated assertions and correction
	// rules.
	ConsistencyGenerator[Y any] = consistency.Generator[Y]
	// TimedOutputs is a model's outputs for one input.
	TimedOutputs[Y any] = consistency.TimedOutputs[Y]
	// TemporalKind selects generated temporal assertions.
	TemporalKind = consistency.TemporalKind
)

// Temporal assertion kinds.
const (
	Flicker = consistency.Flicker
	Appear  = consistency.Appear
)

// Weak-label proposal kinds: the Kind of each proposal
// ConsistencyGenerator.WeakLabels returns.
const (
	ModifyAttr   = consistency.ModifyAttr
	AddOutput    = consistency.AddOutput
	RemoveOutput = consistency.RemoveOutput
)

// AddConsistencyAssertion validates a consistency description, registers
// the generated Boolean assertions (one per attribute plus the selected
// temporal assertions) in the registry, and returns the generator whose
// WeakLabels method implements the correction rules. This is the paper's
// AddConsistencyAssertion(Id, Attrs, T) entry point.
func AddConsistencyAssertion[Y any](reg *Registry, cfg ConsistencyConfig[Y], meta Meta) (*ConsistencyGenerator[Y], error) {
	gen, err := consistency.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := gen.Register(reg, meta); err != nil {
		return nil, err
	}
	return gen, nil
}

// ConsistencySamples converts typed timed outputs into monitor samples.
func ConsistencySamples[Y any](stream []TimedOutputs[Y]) []Sample {
	return consistency.Samples(stream)
}

// Data selection (paper §3).
type (
	// Candidate is one unlabeled data point offered to a selector.
	Candidate = bandit.Candidate
	// RoundState is the per-round input to a selector.
	RoundState = bandit.RoundState
	// BALConfig tunes the BAL algorithm.
	BALConfig = bandit.BALConfig
)

// NewBAL builds the paper's bandit-based active-learning selector
// (Algorithm 2). The zero BALConfig uses the paper's defaults: 25%
// uniform exploration, 1% fallback threshold, random fallback.
func NewBAL(seed int64, cfg BALConfig) *bandit.BAL { return bandit.NewBAL(seed, cfg) }
