package assertion

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"omg/internal/obs"
)

// ErrPoolClosed is returned by Enqueue and ObserveBatch after
// the pool has been closed.
var ErrPoolClosed = errors.New("assertion: monitor pool is closed")

// MonitorPool is the sharded, pipelined runtime-monitoring component: it
// routes samples by their Stream key to shards, so independent deployment
// streams (cameras, patients, feeds) are evaluated concurrently. Each
// stream gets its own Monitor (lazily created on first sample), so sliding
// windows never mix streams, and a stream always maps to exactly one
// shard, so per-stream results are independent of the shard count and each
// stream keeps the total order its window semantics require.
//
// Samples enter through Enqueue or ObserveBatch, which queue them on a
// bounded per-shard queue drained by one worker goroutine per shard. A
// full queue blocks the producer (explicit backpressure, never silent
// loss); Flush waits for the pipeline and the recorder's sink to drain.
// The synchronous surface is Monitor.Observe.
//
// All streams record into one Recorder, whose sink is asynchronous, so
// the observe path stays allocation-lean under multi-stream load.
type MonitorPool struct {
	suite      *Suite
	windowSize int

	shards  []*poolShard
	queues  []chan shardItem
	rec     *Recorder
	sink    Sink // pool-owned backend attached to rec; nil when none
	wg      sync.WaitGroup
	pending *waiter
	drained chan struct{} // closed once the workers have exited

	// actMu serialises action registration against stream-monitor
	// creation so every monitor sees every action exactly once.
	// Lock order: actMu before poolShard.mu.
	actMu   sync.Mutex
	actions []actionSpec

	// qwait gates the queue-wait histogram's clock reads; atomic because
	// every producer goroutine ticks it.
	qwait *obs.AtomicSampler

	mu     sync.RWMutex // enqueue (read side) vs close (write side)
	closed bool
}

// poolShard owns the per-stream monitors of the streams routed to it.
type poolShard struct {
	mu      sync.Mutex
	streams map[string]*Monitor
}

// shardItem is one unit of work on a shard queue: a single sample
// (Enqueue) or a pooled chunk of batch samples (ObserveBatch).
// Carrying the sample inline keeps the single-sample path allocation-free;
// carrying the chunk as a pooled pointer lets the worker hand the backing
// array straight back to the chunk pool when it is done.
type shardItem struct {
	s     Sample
	chunk *[]Sample // nil => single sample
	// enq is the sampled enqueue stamp behind the queue-wait histogram:
	// zero for the unsampled majority, so most items never read the clock.
	enq time.Time
}

// chunkPool recycles the per-shard []Sample chunks ObserveBatch ships over
// the shard queues, so the steady-state batch path allocates nothing: the
// producer takes a chunk per shard per batch, the consuming worker returns
// it after evaluation.
var chunkPool = sync.Pool{New: func() any { c := make([]Sample, 0, 64); return &c }}

func getChunk() *[]Sample { return chunkPool.Get().(*[]Sample) }

func putChunk(c *[]Sample) {
	clear(*c) // release Sample payload references to the GC
	*c = (*c)[:0]
	chunkPool.Put(c)
}

type poolConfig struct {
	shards     int
	queueDepth int
	windowSize int
	recorder   *Recorder
	sink       Sink
}

// PoolOption configures a MonitorPool.
type PoolOption func(*poolConfig)

// WithShards sets the number of shards (default: GOMAXPROCS, minimum 1).
// Each shard has one worker goroutine, so the shard count is also the
// bound on how many streams are evaluated concurrently.
func WithShards(n int) PoolOption {
	return func(c *poolConfig) {
		if n >= 1 {
			c.shards = n
		}
	}
}

// WithQueueDepth sets the per-shard ingestion queue capacity for the async
// path (default 256, minimum 1). A full queue blocks Enqueue — that is the
// pool's backpressure signal.
func WithQueueDepth(n int) PoolOption {
	return func(c *poolConfig) {
		if n >= 1 {
			c.queueDepth = n
		}
	}
}

// WithPoolWindowSize sets each stream monitor's sliding-window length
// (default 16, minimum 1).
func WithPoolWindowSize(n int) PoolOption {
	return func(c *poolConfig) {
		if n >= 1 {
			c.windowSize = n
		}
	}
}

// WithPoolRecorder sets the recorder every stream records into; by
// default a fresh unbounded in-memory recorder is created.
func WithPoolRecorder(r *Recorder) PoolOption {
	return func(c *poolConfig) {
		if r != nil {
			c.recorder = r
		}
	}
}

// WithPoolSink attaches a violation backend to the pool's recorder
// (Recorder.StreamToSink, so a sink already attached to it is closed).
// The pool owns the sink: Flush flushes it and Close closes it. The
// closed sink stays attached, so a violation recorded after Close is
// refused and counted in the recorder's SinkDropped.
func WithPoolSink(s Sink) PoolOption {
	return func(c *poolConfig) {
		c.sink = s
	}
}

// NewMonitorPool builds a sharded monitor over the given suite and starts
// its worker goroutines. Call Close when done.
func NewMonitorPool(suite *Suite, opts ...PoolOption) *MonitorPool {
	cfg := poolConfig{
		shards:     runtime.GOMAXPROCS(0),
		queueDepth: 256,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards < 1 {
		cfg.shards = 1
	}
	if cfg.recorder == nil {
		cfg.recorder = NewRecorder(0)
	}
	p := &MonitorPool{
		suite:      suite,
		windowSize: cfg.windowSize,
		rec:        cfg.recorder,
		sink:       cfg.sink,
		pending:    newWaiter(),
		drained:    make(chan struct{}),
		qwait:      obs.HotAtomicSampler(),
	}
	if p.sink != nil {
		p.rec.StreamToSink(p.sink)
	}
	for i := 0; i < cfg.shards; i++ {
		p.shards = append(p.shards, &poolShard{streams: make(map[string]*Monitor)})
		p.queues = append(p.queues, make(chan shardItem, cfg.queueDepth))
	}
	for i := range p.queues {
		p.wg.Add(1)
		go p.runShard(i)
	}
	return p
}

// runShard drains one shard's queue. Each shard is serviced by exactly one
// goroutine, which is what preserves per-stream total order. Batch chunks
// are evaluated in order and their backing arrays returned to the chunk
// pool.
func (p *MonitorPool) runShard(i int) {
	defer p.wg.Done()
	for it := range p.queues[i] {
		queueWaitHist.Done(it.enq)
		if it.chunk == nil {
			p.monitorFor(i, it.s.Stream).Observe(it.s)
			p.pending.add(-1)
			continue
		}
		chunk := *it.chunk
		for j := range chunk {
			p.monitorFor(i, chunk[j].Stream).Observe(chunk[j])
		}
		p.pending.add(-len(chunk))
		putChunk(it.chunk)
	}
}

// shardFor routes a stream key to its shard with the shared FNV-1a seam.
func (p *MonitorPool) shardFor(stream string) int {
	return ShardFor(stream, len(p.shards))
}

// monitorFor returns the stream's monitor, creating it on first use with
// the pool's window size, recorder and every action registered so far.
func (p *MonitorPool) monitorFor(shard int, stream string) *Monitor {
	sh := p.shards[shard]
	sh.mu.Lock()
	m, ok := sh.streams[stream]
	sh.mu.Unlock()
	if ok {
		return m
	}

	// Slow path: create under actMu so a concurrent OnViolation either
	// sees the new monitor in the map or its actions in p.actions — never
	// neither, never both.
	p.actMu.Lock()
	defer p.actMu.Unlock()
	sh.mu.Lock()
	if m, ok = sh.streams[stream]; ok {
		sh.mu.Unlock()
		return m
	}
	sh.mu.Unlock()

	mopts := []MonitorOption{WithRecorder(p.rec)}
	if p.windowSize >= 1 {
		mopts = append(mopts, WithWindowSize(p.windowSize))
	}
	m = NewMonitor(p.suite, mopts...)
	for _, spec := range p.actions {
		if spec.assertion == "" {
			m.OnViolation(spec.threshold, spec.action)
		} else {
			m.OnAssertion(spec.assertion, spec.threshold, spec.action)
		}
	}
	sh.mu.Lock()
	sh.streams[stream] = m
	sh.mu.Unlock()
	return m
}

// Enqueue queues one sample for asynchronous evaluation on its stream's
// shard. It blocks while the shard's queue is full (backpressure) and
// returns ErrPoolClosed after Close.
func (p *MonitorPool) Enqueue(s Sample) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	p.pending.add(1)
	p.queues[p.shardFor(s.Stream)] <- shardItem{s: s, enq: queueWaitHist.StartIf(p.qwait.Next())}
	return nil
}

// ObserveBatch queues a batch of samples for asynchronous evaluation,
// preserving the batch's relative order within each stream (identical to
// enqueueing the samples one by one — FuzzObserveBatchOrder locks the
// equivalence). It is batch-aware: samples are grouped by shard once and
// each shard receives a single chunk over its queue, so a batch costs one
// close-check and one channel operation per shard instead of per sample.
// It blocks whenever a shard queue is full.
func (p *MonitorPool) ObserveBatch(batch []Sample) error {
	if len(batch) == 0 {
		return nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	if len(batch) == 1 {
		p.pending.add(1)
		p.queues[p.shardFor(batch[0].Stream)] <- shardItem{s: batch[0], enq: queueWaitHist.StartIf(p.qwait.Next())}
		return nil
	}
	chunks := getChunkIndex(len(p.queues))
	for _, s := range batch {
		i := p.shardFor(s.Stream)
		c := (*chunks)[i]
		if c == nil {
			c = getChunk()
			(*chunks)[i] = c
		}
		*c = append(*c, s)
	}
	p.pending.add(len(batch))
	for i, c := range *chunks {
		if c == nil {
			continue
		}
		(*chunks)[i] = nil
		p.queues[i] <- shardItem{chunk: c, enq: queueWaitHist.StartIf(p.qwait.Next())}
	}
	putChunkIndex(chunks)
	return nil
}

// chunkIndexPool recycles the per-call shard→chunk index ObserveBatch
// groups into, completing the zero-allocation steady state of the batch
// path.
var chunkIndexPool = sync.Pool{New: func() any { idx := make([]*[]Sample, 0, 16); return &idx }}

func getChunkIndex(shards int) *[]*[]Sample {
	idx := chunkIndexPool.Get().(*[]*[]Sample)
	for len(*idx) < shards {
		*idx = append(*idx, nil)
	}
	*idx = (*idx)[:shards]
	return idx
}

func putChunkIndex(idx *[]*[]Sample) {
	clear(*idx)
	chunkIndexPool.Put(idx)
}

// Flush blocks until every queued sample has been evaluated and the
// recorder's sink (if any) has drained, and returns the first sink error,
// if any.
func (p *MonitorPool) Flush() error {
	p.pending.wait()
	return p.rec.Flush()
}

// Close drains the pipeline, stops the worker goroutines, flushes the
// recorder's sink and closes the pool-owned sink (WithPoolSink), returning
// the first error. The recorder itself is not closed — a caller that
// attached its own sink to it should rec.Close() it when the stream is
// final. Close is idempotent; Enqueue and ObserveBatch return
// ErrPoolClosed afterwards.
func (p *MonitorPool) Close() error {
	p.mu.Lock()
	first := !p.closed
	p.closed = true
	p.mu.Unlock()
	if first {
		for _, q := range p.queues {
			close(q)
		}
		p.wg.Wait()
		close(p.drained)
	} else {
		// A concurrent or repeated Close must also not return before
		// the pipeline has drained.
		<-p.drained
	}
	err := p.rec.Flush()
	if p.sink != nil {
		// Closed in place, not detached: a violation recorded after Close
		// is refused by the closed sink and counted in SinkDropped.
		p.rec.saveErr(p.sink.Close())
		err = p.rec.Err()
	}
	return err
}

// OnViolation registers an action on every stream monitor (current and
// future), triggered whenever any assertion fires with severity >=
// threshold. Actions may be invoked concurrently from different shards and
// must be safe for concurrent use.
func (p *MonitorPool) OnViolation(threshold float64, a Action) {
	p.registerAction(actionSpec{threshold: threshold, action: a})
}

// OnAssertion registers an action on every stream monitor (current and
// future), triggered when the named assertion fires with severity >=
// threshold. Actions may be invoked concurrently from different shards and
// must be safe for concurrent use.
func (p *MonitorPool) OnAssertion(name string, threshold float64, a Action) {
	p.registerAction(actionSpec{assertion: name, threshold: threshold, action: a})
}

func (p *MonitorPool) registerAction(spec actionSpec) {
	p.actMu.Lock()
	defer p.actMu.Unlock()
	p.actions = append(p.actions, spec)
	p.eachMonitor(func(m *Monitor) {
		if spec.assertion == "" {
			m.OnViolation(spec.threshold, spec.action)
		} else {
			m.OnAssertion(spec.assertion, spec.threshold, spec.action)
		}
	})
}

// eachMonitor visits every stream monitor. Callers needing consistency
// with action registration must hold actMu.
func (p *MonitorPool) eachMonitor(fn func(*Monitor)) {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, m := range sh.streams {
			fn(m)
		}
		sh.mu.Unlock()
	}
}

// Observed returns the number of samples evaluated so far across all
// streams. Queued-but-unevaluated samples are not counted; call Flush
// first for an exact total.
func (p *MonitorPool) Observed() int {
	total := 0
	p.eachMonitor(func(m *Monitor) { total += m.Observed() })
	return total
}

// NumStreams returns how many distinct stream keys have been seen.
func (p *MonitorPool) NumStreams() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += len(sh.streams)
		sh.mu.Unlock()
	}
	return n
}

// Recorder returns the recorder every stream records into; never nil.
func (p *MonitorPool) Recorder() *Recorder { return p.rec }

// Summary returns per-assertion firing counts (Recorder.Summary).
func (p *MonitorPool) Summary() map[string]int { return p.rec.Summary() }

// TotalFired returns the total number of violations recorded.
func (p *MonitorPool) TotalFired() int { return p.rec.TotalFired() }

// AssertionNames returns the names of assertions that have fired on any
// stream, sorted.
func (p *MonitorPool) AssertionNames() []string { return p.rec.AssertionNames() }

// Stats returns aggregate statistics for the named assertion.
func (p *MonitorPool) Stats(name string) (Stats, bool) { return p.rec.Stats(name) }

// Violations returns the retained violations in arrival order.
func (p *MonitorPool) Violations() []Violation { return p.rec.Violations() }

// NumShards returns the number of shards.
func (p *MonitorPool) NumShards() int { return len(p.shards) }

// Pending returns how many samples are currently queued on shard queues
// or in flight with a worker — the async pipeline's depth, the natural
// value for a queue-depth gauge on an edge /metrics page.
func (p *MonitorPool) Pending() int { return p.pending.count() }
