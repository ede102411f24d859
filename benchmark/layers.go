package main

// layers.go is the benchmark's whole surface onto the repository: every
// import of an omg/internal package, every repo symbol, flag and wire
// constant the harness depends on lives in this file (README.md lists
// them as the surface manifest). The rest of the harness is stdlib-only
// and talks to the system through the aliases and helpers below, so an
// interface change in a layer is followed here and nowhere else.

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"omg/internal/assertion"
	"omg/internal/consistency"
	"omg/internal/domains/avscenes"
	"omg/internal/domains/heartbeat"
	"omg/internal/domains/newsroom"
	"omg/internal/domains/nightstreet"
	"omg/internal/export"
	"omg/internal/labelsvc"
	"omg/internal/obs"
	"omg/internal/store"
)

// Wire and API types, aliased so the other files never import a repo
// package.
type (
	violation              = assertion.Violation
	violationSink          = assertion.Sink
	sample                 = assertion.Sample
	wireBatch              = export.Batch
	ingestResponse         = export.IngestResponse
	summaryResponse        = export.SummaryResponse
	queryResponse          = export.QueryResponse
	labelsNextResponse     = export.LabelsNextResponse
	labelsFeedbackRequest  = export.LabelsFeedbackRequest
	labelsFeedbackResponse = export.LabelsFeedbackResponse
	labelFeedback          = labelsvc.Feedback
)

// The HTTP API and wire constants the load generator speaks.
const (
	ingestPath         = export.IngestPath
	tailPath           = export.TailPath
	labelsNextPath     = export.LabelsNextPath
	labelsFeedbackPath = export.LabelsFeedbackPath
	summaryPath        = "/v1/summary"
	queryPath          = "/v1/violations/query"
	healthPath         = "/healthz"
	metricsPath        = "/metrics"
	sourceHeader       = export.SourceHeader
	seqHeader          = export.SeqHeader
	wireVersion        = export.WireVersion
	codecJSON          = export.CodecJSON
	codecBinary        = export.CodecBinary
	storeMem           = export.StoreMem
	storeDisk          = export.StoreDisk
	listeningPrefix    = "omg-server listening on "
	tailAssertion      = "vehicle:multibox"
	edgeBatchMax       = 256 // omg-monitor's -export-batch default
	edgeWindow         = 8   // omg-monitor's pool window
	edgeRecorderLimit  = 10000
)

// collectorSpec is one collector configuration, expressed once and
// rendered either as omg-server flags (the spawned process the end-to-end
// metrics come from) or as an export.CollectorConfig (the in-process twin
// the traced run and the smoke test use).
type collectorSpec struct {
	Shards             int
	Store              string
	Retain             int // mem ring size; ignored by the disk store
	RetainPerAssertion int
	CompactEvery       time.Duration
}

func (s collectorSpec) flags(dataDir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-shards", strconv.Itoa(s.Shards), "-store", s.Store}
	if s.Store == storeDisk {
		args = append(args, "-data-dir", dataDir)
	} else {
		args = append(args, "-retain", strconv.Itoa(s.Retain))
	}
	if s.RetainPerAssertion > 0 {
		args = append(args,
			"-retain-per-assertion", strconv.Itoa(s.RetainPerAssertion),
			"-compact-every", s.CompactEvery.String())
	}
	return args
}

// twinCollector is the in-process twin of a spawned omg-server: the same
// OpenCollector configuration, served by the benchmark's own listener so
// the harness can put spans around its handler.
type twinCollector struct{ c *export.Collector }

func openTwinCollector(s collectorSpec, dataDir string) (*twinCollector, error) {
	cfg := export.CollectorConfig{
		Shards:             s.Shards,
		Store:              s.Store,
		Retain:             s.Retain,
		RetainPerAssertion: s.RetainPerAssertion,
		CompactEvery:       s.CompactEvery,
	}
	if s.Store == storeDisk {
		cfg.DataDir = dataDir
	}
	c, err := export.OpenCollector(cfg)
	if err != nil {
		return nil, err
	}
	return &twinCollector{c: c}, nil
}

func (t *twinCollector) handler() http.Handler { return t.c.Handler() }
func (t *twinCollector) close() error          { return t.c.Close() }

// abandon is the twin's SIGKILL: tail streams end so the listener can
// shut down, but nothing is checkpointed, flushed or closed — the next
// open of the data directory runs real crash recovery.
func (t *twinCollector) abandon() { t.c.Quiesce() }

// fleetProfile is one seed domain's assertion vocabulary and severity
// range, as cmd/omg-loadgen profiles the six domains.
type fleetProfile struct {
	domain       string
	assertions   []string
	sevLo, sevHi float64
}

func fleetVocabulary() []fleetProfile {
	news := make([]string, 0, len(newsroom.AttrKeys))
	for _, attr := range newsroom.AttrKeys {
		news = append(news, "news:flicker:"+attr)
	}
	return []fleetProfile{
		{"nightstreet", nightstreet.AssertionNames, 0.3, 3},
		{"avscenes", avscenes.AssertionNames, 0.3, 3},
		{"heartbeat", []string{heartbeat.AssertionName}, 1, 2},
		{"newsroom", news, 0.5, 2},
		{"lidar", []string{"lidar:agree", "lidar:multibox"}, 0.3, 3},
		{"video", []string{"video:flicker", "video:appear"}, 0.3, 3},
	}
}

// encodeFrame appends one wire frame in the named codec and returns it
// with the Content-Type to post it under.
func encodeFrame(codec string, dst []byte, b wireBatch) ([]byte, string, error) {
	c, err := export.Codec(codec)
	if err != nil {
		return dst, "", err
	}
	b.Version = wireVersion
	out, err := c.AppendBatch(dst, b)
	return out, c.ContentType(), err
}

// decodeFrame decodes one captured request body by its Content-Type.
func decodeFrame(contentType string, data []byte) (wireBatch, error) {
	c, ok := export.CodecForContentType(contentType)
	if !ok {
		return wireBatch{}, fmt.Errorf("no codec for Content-Type %q", contentType)
	}
	return c.DecodeBatch(data)
}

// edgeFeed is the night-street deployment video of the edge workload:
// per-stream tracked detector outputs, generated once from the seed and
// replayed in a loop with rebased Index and Time.
type edgeFeed struct {
	suite   *assertion.Suite
	streams [][]sample
	dt      float64
}

func streamKey(i int) string { return fmt.Sprintf("cam-%02d", i) }

// buildEdgeFeed runs the detector and tracker over `streams` simulated
// cameras (domain seeds seed+i), two at a time — the box has two cores.
func buildEdgeFeed(seed int64, streams, frames int) *edgeFeed {
	f := &edgeFeed{streams: make([][]sample, streams)}
	domains := make([]*nightstreet.Domain, streams)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i := range domains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			d := nightstreet.New(nightstreet.Config{Seed: seed + int64(i), PoolFrames: frames, TestFrames: 1})
			ss := consistency.Samples(d.DetectTracked(d.Pool()))
			for j := range ss {
				ss[j].Stream = streamKey(i)
			}
			domains[i], f.streams[i] = d, ss
		}()
	}
	wg.Wait()
	f.suite = domains[0].Suite()
	f.dt = 0.1
	if len(f.streams[0]) > 1 {
		f.dt = f.streams[0][1].Time - f.streams[0][0].Time
	}
	return f
}

// fill writes len(dst) consecutive samples of one stream starting at
// global position from: the recorded video loops, while Index and Time
// keep counting so temporal assertions see one unbroken deployment.
func (f *edgeFeed) fill(dst []sample, stream, from int) {
	src := f.streams[stream]
	for k := range dst {
		g := from + k
		s := src[g%len(src)]
		s.Index = g
		s.Time = float64(g) * f.dt
		dst[k] = s
	}
}

// edgePipeline is omg-monitor's deployment, in process: MonitorPool →
// HTTPSink (JSON wire, batch 256) → the collector at baseURL.
type edgePipeline struct {
	pool *assertion.MonitorPool
	sink *export.HTTPSink

	// tailFirings counts vehicle:multibox firings on cam-00 while
	// counting is on — what the SSE tail subscriber must receive.
	counting    atomic.Bool
	tailFirings atomic.Int64
}

// newEdgePipeline wires the pool to a fresh HTTPSink. wrap, when not nil,
// puts the tracer's span sink between the pool and the HTTPSink.
func newEdgePipeline(f *edgeFeed, baseURL string, client *http.Client, wrap func(violationSink) violationSink) (*edgePipeline, error) {
	sink, err := export.NewHTTPSink(export.HTTPSinkConfig{
		BaseURL:  baseURL,
		Source:   "edge-00",
		Wire:     codecJSON,
		BatchMax: edgeBatchMax,
		Client:   client,
	})
	if err != nil {
		return nil, err
	}
	var poolSink assertion.Sink = sink
	if wrap != nil {
		poolSink = wrap(sink)
	}
	p := &edgePipeline{sink: sink}
	p.pool = assertion.NewMonitorPool(f.suite,
		assertion.WithShards(len(f.streams)),
		assertion.WithPoolWindowSize(edgeWindow),
		assertion.WithPoolRecorder(assertion.NewRecorder(edgeRecorderLimit)),
		assertion.WithPoolSink(poolSink))
	tailStream := streamKey(0)
	p.pool.OnAssertion(tailAssertion, 0, func(v violation) {
		if v.Stream == tailStream && p.counting.Load() {
			p.tailFirings.Add(1)
		}
	})
	return p, nil
}

func (p *edgePipeline) observeBatch(b []sample) error { return p.pool.ObserveBatch(b) }
func (p *edgePipeline) flush() error                  { return p.pool.Flush() }
func (p *edgePipeline) close() error                  { return p.pool.Close() }
func (p *edgePipeline) fired() int64                  { return int64(p.pool.TotalFired()) }
func (p *edgePipeline) observed() int64               { return int64(p.pool.Observed()) }

type sinkStats struct{ delivered, batches, retries, dropped int64 }

func (p *edgePipeline) sinkStats() sinkStats {
	st := p.sink.Stats()
	return sinkStats{st.Delivered, st.Batches, st.Retries, st.Dropped}
}

// spanSink is the tracer's wrapping assertion.Sink: it times every Record
// (the back-pressure wait) and counts violations at the pool → sink
// boundary. Record runs ~100K times a second, so it feeds an aggregate,
// not one span per call.
type spanSink struct {
	inner assertion.Sink
	agg   *aggregate
}

func (s *spanSink) Record(v violation) error {
	t0 := time.Now()
	err := s.inner.Record(v)
	s.agg.add(time.Since(t0))
	return err
}
func (s *spanSink) Flush() error { return s.inner.Flush() }
func (s *spanSink) Close() error { return s.inner.Close() }
func (s *spanSink) Err() error   { return s.inner.Err() }
func (s *spanSink) Dropped() int64 {
	if dc, ok := s.inner.(assertion.DropCounter); ok {
		return dc.Dropped()
	}
	return 0
}

func wrapSpanSink(agg *aggregate) func(violationSink) violationSink {
	return func(inner violationSink) violationSink { return &spanSink{inner: inner, agg: agg} }
}

// ---- Direct layer probes (traced run only) ----
//
// Each probe calls one layer directly on inputs captured from the traced
// run, so a per-layer number is measured where the work happens and on
// the data the workload really produced.

// probeEdgeLayers times the assertion layer on the night-street feed:
// Suite evaluation alone, Monitor.Observe around it, the pool's dispatch
// with a no-op suite, and the obs instrumentation's share of Observe.
func probeEdgeLayers(f *edgeFeed, put func(name string, v float64)) {
	n := 0
	// Suite.Evaluate over the same sliding windows a Monitor would build.
	var vec assertion.Vector
	t0 := time.Now()
	for _, src := range f.streams {
		for i := 1; i <= len(src); i++ {
			vec = f.suite.EvaluateInto(vec, src[max(0, i-edgeWindow):i])
		}
		n += len(src)
	}
	evalNs := float64(time.Since(t0).Nanoseconds()) / float64(n)
	put("assertion.suite_eval_ns_per_sample", evalNs)

	observe := func() float64 {
		total := 0
		t0 := time.Now()
		for _, ss := range f.streams {
			m := assertion.NewMonitor(f.suite, assertion.WithWindowSize(edgeWindow),
				assertion.WithRecorder(assertion.NewRecorder(edgeRecorderLimit)))
			for _, s := range ss {
				m.Observe(s)
			}
			total += len(ss)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(total)
	}
	// obs on vs off, alternated; the minimum of five is each side's cost.
	on, off := 1e18, 1e18
	for r := 0; r < 5; r++ {
		obs.SetEnabled(false)
		off = min(off, observe())
		obs.SetEnabled(true)
		on = min(on, observe())
	}
	put("assertion.observe_self_ns_per_sample", on-evalNs)
	put("obs.observe_overhead_pct", 100*(on-off)/off)

	h := obs.NewRegistry().NewHistogram("bench_probe_seconds", "probe")
	const records = 1 << 20
	t0 = time.Now()
	for i := 0; i < records; i++ {
		h.Record(time.Duration(i))
	}
	put("obs.record_ns", float64(time.Since(t0).Nanoseconds())/records)

	// Pool dispatch: the same ObserveBatch chunks, a suite that does nothing.
	noop := assertion.NewSuite(assertion.New("noop", func([]sample) float64 { return 0 }))
	pool := assertion.NewMonitorPool(noop, assertion.WithShards(len(f.streams)), assertion.WithPoolWindowSize(edgeWindow))
	chunk := make([]sample, 64)
	total := 0
	t0 = time.Now()
	for from := 0; from+len(chunk) <= len(f.streams[0]); from += len(chunk) {
		for s := range f.streams {
			f.fill(chunk, s, from)
			pool.ObserveBatch(chunk)
			total += len(chunk)
		}
	}
	pool.Flush()
	put("assertion.pool_dispatch_ns_per_sample", float64(time.Since(t0).Nanoseconds())/float64(total))
	pool.Close()
}

// probeCodecs encodes and decodes the captured batches with both wire
// codecs.
func probeCodecs(batches []wireBatch, put func(name string, v float64)) {
	var total int
	for _, b := range batches {
		total += len(b.Violations)
	}
	if total == 0 {
		return
	}
	for _, name := range []string{codecJSON, codecBinary} {
		c, err := export.Codec(name)
		if err != nil {
			continue
		}
		frames := make([][]byte, len(batches))
		var bytes int
		t0 := time.Now()
		for i, b := range batches {
			frames[i], _ = c.AppendBatch(nil, b)
			bytes += len(frames[i])
		}
		enc := time.Since(t0)
		t0 = time.Now()
		for _, fr := range frames {
			c.DecodeBatch(fr)
		}
		dec := time.Since(t0)
		put("export.encode_"+name+"_ns_per_violation", float64(enc.Nanoseconds())/float64(total))
		put("export.decode_"+name+"_ns_per_violation", float64(dec.Nanoseconds())/float64(total))
		put("export.wire_bytes_per_violation_"+name, float64(bytes)/float64(total))
	}
}

// renumbered returns the batches with fresh, per-source increasing
// sequence numbers, so a replay into a new collector is never deduplicated
// whatever order the capture happened to be in.
func renumbered(batches []wireBatch) []wireBatch {
	seq := map[string]uint64{}
	out := make([]wireBatch, len(batches))
	for i, b := range batches {
		seq[b.Source]++
		b.Seq = seq[b.Source]
		out[i] = b
	}
	return out
}

// probeCollector replays the captured batches through Collector.Ingest on
// fresh disk and mem twins of the workload's collector, then times the
// merged read views on the disk twin.
func probeCollector(spec collectorSpec, tmp string, batches []wireBatch, put func(name string, v float64)) error {
	var total int
	for _, b := range batches {
		total += len(b.Violations)
	}
	if total == 0 {
		return nil
	}
	batches = renumbered(batches)
	spec.RetainPerAssertion = 0 // no janitor racing the replay
	for _, kind := range []string{storeDisk, storeMem} {
		spec.Store = kind
		dir, err := os.MkdirTemp(tmp, "probe-collector-")
		if err != nil {
			return err
		}
		t, err := openTwinCollector(spec, dir)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, b := range batches {
			t.c.Ingest(b)
		}
		put("export.ingest_"+kind+"_ns_per_violation", float64(time.Since(t0).Nanoseconds())/float64(total))
		if kind == storeDisk {
			t0 = time.Now()
			vs := t.c.Violations()
			put("export.merged_view_ms", ms(time.Since(t0)))
			if len(vs) > 0 {
				t0 = time.Now()
				t.c.ByAssertion(vs[len(vs)-1].Assertion)
				put("export.by_assertion_ms", ms(time.Since(t0)))
			}
		}
		t.close()
		os.RemoveAll(dir)
	}
	return nil
}

// probeStores appends the captured violations to a fresh SegmentStore and
// a fresh MemStore in 256-violation batches (Sync after each, as the
// collector does), queries both by stream, and compacts the segment store
// to maxPer per assertion.
func probeStores(tmp string, vs []violation, maxPer int, put func(name string, v float64)) error {
	if len(vs) == 0 {
		return nil
	}
	dir, err := os.MkdirTemp(tmp, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	mem := assertion.NewMemStore(0)
	var appendDur, syncDur, memDur time.Duration
	syncs := 0
	for from := 0; from < len(vs); from += 256 {
		chunk := vs[from:min(from+256, len(vs))]
		t0 := time.Now()
		for _, v := range chunk {
			st.Append(v)
		}
		t1 := time.Now()
		st.Sync()
		t2 := time.Now()
		for _, v := range chunk {
			mem.Append(v)
		}
		appendDur += t1.Sub(t0)
		syncDur += t2.Sub(t1)
		memDur += time.Since(t2)
		syncs++
	}
	n := float64(len(vs))
	put("store.append_ns_per_violation", float64(appendDur.Nanoseconds())/n)
	put("store.sync_us_per_batch", float64(syncDur.Microseconds())/float64(syncs))
	put("assertion.memstore_append_ns_per_violation", float64(memDur.Nanoseconds())/n)
	info := st.Info()
	put("store.bytes_per_violation", float64(info.Bytes)/float64(info.Entries))

	q := store.Query{Stream: vs[len(vs)/2].Stream, Limit: 100}
	t0 := time.Now()
	st.Query(q)
	put("store.query_indexed_ms", ms(time.Since(t0)))
	t0 = time.Now()
	mem.Query(q)
	put("assertion.memstore_query_ms", ms(time.Since(t0)))

	if maxPer > 0 {
		t0 = time.Now()
		if _, err := st.Compact(0, maxPer); err != nil {
			return err
		}
		put("store.compact_ms", ms(time.Since(t0)))
		put("store.compact_rewritten_bytes", float64(st.Info().Bytes))
	}
	return nil
}

// probeRecover times store.Open — crash recovery — on a copy of one shard
// directory of a killed disk collector. A copy, because Close writes a
// checkpoint and the real directory must reopen exactly as the kill left
// it.
func probeRecover(tmp, shardDir string, put func(name string, v float64)) error {
	dir, err := os.MkdirTemp(tmp, "probe-recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := os.CopyFS(dir, os.DirFS(shardDir)); err != nil {
		return err
	}
	t0 := time.Now()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	d := time.Since(t0)
	info := st.Info()
	st.Close()
	if info.Entries > 0 {
		put("store.recover_ns_per_record", float64(d.Nanoseconds())/float64(info.Entries))
	}
	put("store.segments", float64(info.Segments))
	return nil
}

func shardDir(dataDir string, i int) string {
	return filepath.Join(dataDir, fmt.Sprintf("shard-%d", i))
}

type violationSlice []violation

func (s violationSlice) Violations() []violation { return s }

// probeLabels runs the label service over the captured violations: one
// invalidating ObserveBatch, the candidate assembly it forces, a pull and
// its feedback, with state persisted as a disk collector would.
func probeLabels(tmp string, vs []violation, put func(name string, v float64)) error {
	if len(vs) == 0 {
		return nil
	}
	dir, err := os.MkdirTemp(tmp, "probe-labels-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	statePath := filepath.Join(dir, "labels.json")
	svc, err := labelsvc.New(violationSlice(vs), labelsvc.Config{StatePath: statePath})
	if err != nil {
		return err
	}
	defer svc.Close()
	svc.Pool() // first assembly also binds nothing; warm the path
	batch := vs[:min(256, len(vs))]
	t0 := time.Now()
	svc.ObserveBatch("probe-00", batch)
	put("labelsvc.observe_batch_us", float64(time.Since(t0).Nanoseconds())/1e3)
	t0 = time.Now()
	svc.Pool()
	put("labelsvc.assemble_ms", ms(time.Since(t0)))
	t0 = time.Now()
	next, err := svc.Next(16, "probe")
	if err != nil {
		return err
	}
	put("labelsvc.next_ms", ms(time.Since(t0)))
	fb := make([]labelFeedback, len(next.Candidates))
	for i, c := range next.Candidates {
		fb[i] = labelFeedback{SampleKey: c.SampleKey, ModelCorrect: i%2 == 0}
	}
	t0 = time.Now()
	if _, err := svc.ApplyFeedback(fb); err != nil {
		return err
	}
	put("labelsvc.feedback_ms", ms(time.Since(t0)))
	if fi, err := os.Stat(statePath); err == nil {
		put("labelsvc.state_bytes", float64(fi.Size()))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
