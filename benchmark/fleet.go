package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// frameSize is the violations per posted batch — HTTPSink's default
// BatchMax, so a fleet frame is the size a real edge ships.
const frameSize = 256

// fleetStream is one synthetic deployment stream of one seed domain.
type fleetStream struct {
	key    string
	prof   *fleetProfile
	sample int
}

// fleetSource is one wire source: the streams it exports and its
// sequence counter. last is its newest frame, kept for the duplicate
// re-POST gate.
type fleetSource struct {
	name    string
	seq     uint64
	streams []*fleetStream
	cursor  int

	last   []byte
	lastCT string
}

// fleet is the fleet generator: streams of the six seed domains'
// assertion vocabularies spread over a fixed set of sources. Everything
// it emits is a function of the per-connection RNG handed to next.
type fleet struct {
	sources    []*fleetSource
	streamKeys []string
	assertions []string // distinct names, in first-seen order
}

func newFleet(prefix string, sources, streams int) *fleet {
	profs := fleetVocabulary()
	f := &fleet{}
	for i := 0; i < sources; i++ {
		f.sources = append(f.sources, &fleetSource{name: fmt.Sprintf("%s-src-%02d", prefix, i)})
	}
	seen := map[string]bool{}
	for i := 0; i < streams; i++ {
		p := &profs[i%len(profs)]
		st := &fleetStream{key: fmt.Sprintf("%s-%s-%02d", prefix, p.domain, i), prof: p}
		src := f.sources[i%sources]
		src.streams = append(src.streams, st)
		f.streamKeys = append(f.streamKeys, st.key)
		for _, a := range p.assertions {
			if !seen[a] {
				seen[a] = true
				f.assertions = append(f.assertions, a)
			}
		}
	}
	return f
}

// next fills dst[:n] with the source's next n violations: its streams
// take turns, each turn is one new sample firing 1-3 distinct assertions
// of the stream's domain (a frame boundary may split a sample).
func (s *fleetSource) next(rng *rand.Rand, dst []violation, n int) []violation {
	dst = dst[:0]
	for len(dst) < n {
		st := s.streams[s.cursor%len(s.streams)]
		s.cursor++
		st.sample++
		names := st.prof.assertions
		k := min(1+rng.Intn(3), len(names))
		first := rng.Intn(len(names))
		for j := 0; j < k && len(dst) < n; j++ {
			dst = append(dst, violation{
				Assertion:   names[(first+j)%len(names)],
				Stream:      st.key,
				SampleIndex: st.sample,
				Time:        float64(st.sample) / 30,
				Severity:    st.prof.sevLo + rng.Float64()*(st.prof.sevHi-st.prof.sevLo),
			})
		}
	}
	return dst
}

// ingestConn is one closed-loop connection: it owns its sources, posts
// one frame at a time and waits for the answer before building the next.
type ingestConn struct {
	h       *harness
	codec   string
	sources []*fleetSource
	rng     *rand.Rand

	buf   []violation
	frame []byte
	turn  int
	posts latencies // acknowledged POSTs
	acked int64
}

func newIngestConn(h *harness, codec string, sources []*fleetSource, seed int64) *ingestConn {
	return &ingestConn{h: h, codec: codec, sources: sources, rng: rand.New(rand.NewSource(seed)),
		buf: make([]violation, 0, frameSize)}
}

// postNext builds and posts the next frame of the connection's next
// source, timing it from `from` — the send time in a closed loop (pass
// the zero time), the due time in an open one. A non-200, short-acked or
// duplicate answer is a failed operation and records no latency.
func (c *ingestConn) postNext(from time.Time) {
	src := c.sources[c.turn%len(c.sources)]
	c.turn++
	src.seq++
	c.buf = src.next(c.rng, c.buf, frameSize)
	frame, ct, err := encodeFrame(c.codec, c.frame[:0], wireBatch{Source: src.name, Seq: src.seq, Violations: c.buf})
	c.frame = frame
	c.h.attempt(1)
	if err != nil {
		c.h.fail(1, "encode frame: %v", err)
		return
	}
	if from.IsZero() {
		from = time.Now()
	}
	ans, err := postFrame(c.h.client, c.h.col.url(), ct, src.name, src.seq, frame)
	done := time.Since(from)
	switch {
	case err != nil:
		c.h.fail(1, "ingest %s seq %d: %v", src.name, src.seq, err)
		return
	case ans.Duplicate || ans.Accepted != frameSize:
		c.h.fail(1, "ingest %s seq %d: accepted %d duplicate %v, want %d fresh", src.name, src.seq, ans.Accepted, ans.Duplicate, frameSize)
		return
	}
	src.last, src.lastCT = append(src.last[:0], frame...), ct
	c.acked += frameSize
	c.posts.add(done)
}

// runIngest drives conns concurrently, each a closed loop, until stop
// (when not nil) flips or every connection has posted its share of frames
// (frames <= 0 means until stop).
func runIngest(conns []*ingestConn, frames int, stop *atomic.Bool) {
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; (frames <= 0 || n < frames) && (stop == nil || !stop.Load()); n++ {
				c.postNext(time.Time{})
			}
		}()
	}
	wg.Wait()
}

// splitSources deals a fleet's sources round-robin onto n connections.
func splitSources(f *fleet, n int) [][]*fleetSource {
	out := make([][]*fleetSource, n)
	for i, s := range f.sources {
		out[i%n] = append(out[i%n], s)
	}
	return out
}

// settleIngest is the conservation gate every ingesting workload ends
// with: the collector's total equals what was acknowledged, nothing was
// rejected or deduplicated, and re-posting each source's newest frame is
// answered duplicate:true and leaves the total unchanged.
func settleIngest(h *harness, acked int64, sources []*fleetSource) {
	base := h.col.url()
	var sum summaryResponse
	if err := getJSON(h.client, base+summaryPath, &sum); err != nil {
		h.note("settle: %v", err)
		return
	}
	h.check(int64(sum.TotalFired) == acked, "settle: collector total_fired %d != acknowledged %d", sum.TotalFired, acked)
	h.check(sum.Rejected == 0, "settle: collector rejected %d requests", sum.Rejected)
	h.check(sum.DuplicateBatches == 0, "settle: %d duplicate batches before the re-POST gate", sum.DuplicateBatches)
	reposted := 0
	for _, src := range sources {
		if src.last == nil {
			continue
		}
		h.attempt(1)
		ans, err := postFrame(h.client, base, src.lastCT, src.name, src.seq, src.last)
		if err != nil || !ans.Duplicate || ans.Accepted != 0 {
			h.fail(1, "re-POST %s seq %d: %+v %v, want duplicate:true", src.name, src.seq, ans, err)
			continue
		}
		reposted++
	}
	var after summaryResponse
	if err := getJSON(h.client, base+summaryPath, &after); err != nil {
		h.note("settle: %v", err)
		return
	}
	h.check(after.TotalFired == sum.TotalFired, "settle: re-POSTs moved total_fired %d -> %d", sum.TotalFired, after.TotalFired)
	h.check(after.DuplicateBatches == int64(reposted), "settle: %d duplicates counted for %d re-POSTs", after.DuplicateBatches, reposted)
}

// fleetWarmup is how many violations fleet_ingest posts before its timed
// window opens: about two seconds of ingest, so two retention compactions
// have run, the retained set is at its steady size and the window sees
// compaction as production does.
const fleetWarmup = 1200000

// runFleetIngest: see the workload table in README.md.
func runFleetIngest(h *harness) error {
	t0 := time.Now()
	spec := collectorSpec{Shards: 2, Store: storeDisk,
		RetainPerAssertion: h.scaled(20000, 50), CompactEvery: time.Second}
	if h.capture != nil {
		// The compaction probe needs as many violations as a compaction
		// cycle sees: a second of ingest on top of the retained set.
		h.capture.max = 4 * replayFrames
	}
	if err := h.startCollector(spec); err != nil {
		return err
	}
	f := newFleet("fl", 8, 64)
	var conns []*ingestConn
	for i, srcs := range splitSources(f, 2) {
		conns = append(conns, newIngestConn(h, codecBinary, srcs, h.cfg.Seed+int64(i)))
	}
	runIngest(conns, h.scaled(fleetWarmup, 2*frameSize)/frameSize/len(conns), nil)
	var warm int64
	for _, c := range conns {
		warm += c.acked
		c.posts = nil
	}
	h.put("setup_s", time.Since(t0).Seconds())

	sm := startSampler(h.col)
	var stop atomic.Bool
	from := time.Now()
	timer := time.AfterFunc(h.seconds(1), func() { stop.Store(true) })
	runIngest(conns, 0, &stop)
	window := time.Since(from)
	timer.Stop()
	cpu, rss, peak := sm.finish()

	var acked int64
	var lat latencies
	for _, c := range conns {
		acked += c.acked
		lat = append(lat, c.posts...)
	}
	if len(lat) == 0 {
		return fmt.Errorf("no frame acknowledged in the timed window")
	}
	timedAcked := float64(acked - warm)
	s := h.timing("latency_p50_ms", lat)
	h.put("throughput_per_s", timedAcked/window.Seconds())
	h.put("client.server_cpu_us_per_item", float64(cpu.Microseconds())/timedAcked)
	h.put("server_rss_mb", rss)
	h.put("client.ingest_violations_per_s", timedAcked/window.Seconds())
	h.put("client.ack_p50_ms", s.P50)
	h.put("client.ack_tail_ms", s.Tail)
	h.put("client.ack_max_ms", s.Max)
	h.put("client.server_peak_rss_mb", peak)

	settleIngest(h, acked, f.sources)
	if h.tr != nil {
		return fleetLayerProbes(h, spec, lat)
	}
	return nil
}
