package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sync"
	"time"
)

const (
	queryLimit   = 100
	labelBudget  = 16
	tricklePause = 100 * time.Millisecond
	warmupCycles = 4
)

// opsReader is the closed-loop operator of the ops workloads: one
// connection issuing the same cycle of reads until the window ends.
type opsReader struct {
	h      *harness
	f      *fleet
	rng    *rand.Rand
	ops    int       // requests answered correctly
	rounds latencies // whole label rounds: lease + feedback
	series map[string]*latencies
}

func newOpsReader(h *harness, f *fleet, seed int64) *opsReader {
	return &opsReader{h: h, f: f, rng: rand.New(rand.NewSource(seed)), series: map[string]*latencies{}}
}

func (r *opsReader) record(name string, d time.Duration) {
	l := r.series[name]
	if l == nil {
		l = new(latencies)
		r.series[name] = l
	}
	l.add(d)
	r.ops++
}

// query runs one /v1/violations/query and checks the answer: exactly
// queryLimit violations, all matching the filter.
func (r *opsReader) query(series, assertionName, stream string) {
	q := url.Values{"limit": {fmt.Sprint(queryLimit)}}
	if assertionName != "" {
		q.Set("assertion", assertionName)
	}
	if stream != "" {
		q.Set("stream", stream)
	}
	var ans queryResponse
	r.h.attempt(1)
	t0 := time.Now()
	err := getJSON(r.h.client, r.h.col.url()+queryPath+"?"+q.Encode(), &ans)
	d := time.Since(t0)
	if err != nil {
		r.h.fail(1, "%s: %v", series, err)
		return
	}
	if ans.Count != queryLimit || len(ans.Violations) != queryLimit {
		r.h.fail(1, "%s: %d violations (count %d), want %d", series, len(ans.Violations), ans.Count, queryLimit)
		return
	}
	for _, v := range ans.Violations {
		if (assertionName != "" && v.Assertion != assertionName) || (stream != "" && v.Stream != stream) {
			r.h.fail(1, "%s: answer holds %s/%s, outside the filter", series, v.Assertion, v.Stream)
			return
		}
	}
	r.record(series, d)
}

// refresh is one dashboard refresh: newest violations of one assertion,
// of one stream, of everything, and the summary.
func (r *opsReader) refresh() {
	r.query("client.query_assertion_p50_ms", r.f.assertions[r.rng.Intn(len(r.f.assertions))], "")
	r.query("client.query_stream_p50_ms", "", r.f.streamKeys[r.rng.Intn(len(r.f.streamKeys))])
	r.query("client.query_newest_p50_ms", "", "")
	var sum summaryResponse
	r.h.attempt(1)
	t0 := time.Now()
	if err := getJSON(r.h.client, r.h.col.url()+summaryPath, &sum); err != nil {
		r.h.fail(1, "summary: %v", err)
		return
	}
	r.record("client.summary_p50_ms", time.Since(t0))
}

// labelRound is one annotator round: lease a batch, label it, post the
// labels back.
func (r *opsReader) labelRound() {
	base := r.h.col.url()
	var next labelsNextResponse
	r.h.attempt(1)
	t0 := time.Now()
	err := getJSON(r.h.client, fmt.Sprintf("%s%s?budget=%d&puller=bench", base, labelsNextPath, labelBudget), &next)
	t1 := time.Now()
	if err != nil || next.Count != labelBudget || len(next.Candidates) != labelBudget {
		r.h.fail(1, "labels/next: %d candidates, err %v, want %d", len(next.Candidates), err, labelBudget)
		return
	}
	r.record("client.labels_next_p50_ms", t1.Sub(t0))
	req := labelsFeedbackRequest{Version: wireVersion}
	for _, c := range next.Candidates {
		req.Labels = append(req.Labels, labelFeedback{SampleKey: c.SampleKey, Label: "reviewed", ModelCorrect: r.rng.Intn(2) == 0})
	}
	var ans labelsFeedbackResponse
	r.h.attempt(1)
	t2 := time.Now()
	err = postJSON(r.h.client, base+labelsFeedbackPath, req, &ans)
	t3 := time.Now()
	if err != nil || ans.Applied != labelBudget || ans.Duplicates != 0 {
		r.h.fail(1, "labels/feedback: %+v, err %v, want %d applied", ans, err, labelBudget)
		return
	}
	r.record("client.labels_feedback_p50_ms", t3.Sub(t2))
	r.rounds.add(t3.Sub(t0))
}

// runOps is the shared body of the ops workloads: preload a fixed state,
// warm the read path, then for the timed window run an open-loop JSON
// trickle (one frame every 100 ms, timed from its due time) on one
// connection beside a closed-loop reader on another. With labels the
// reader does label rounds, otherwise dashboard refreshes.
//
// Throughput and latency are read off the two connections, one each, so
// neither role is derived from the other. Beside dashboard refreshes the
// trickle keeps up: the reader's rate is the throughput and the trickle's
// acknowledgement, from its due time, the latency an ingesting edge sees.
// Beside label rounds it cannot keep up — a pull holds the lock every
// ingest apply needs for longer than the trickle's period — so its backlog
// grows through the window and a latency from due time has no steady
// value there; what it got acknowledged per second is the throughput, and
// the label round the annotator waits for is the latency.
func runOps(h *harness, spec collectorSpec, preload int, labels bool) error {
	cycle := (*opsReader).refresh
	if labels {
		cycle = (*opsReader).labelRound
	}
	t0 := time.Now()
	if err := h.startCollector(spec); err != nil {
		return err
	}
	f := newFleet("fl", 8, 64)
	var loaders []*ingestConn
	for i, srcs := range splitSources(f, 2) {
		loaders = append(loaders, newIngestConn(h, codecBinary, srcs, h.cfg.Seed+int64(i)))
	}
	runIngest(loaders, max(preload/frameSize/len(loaders), 1), nil)
	// Warm-up, part of set-up as on fleet_ingest: a few reader cycles whose
	// timings are thrown away, so the window starts on warm read paths —
	// and so set-up is a second of real work, not a tenth of a second of
	// process spawn whose median moves 20 % between identical runs.
	warm := newOpsReader(h, f, h.cfg.Seed+99)
	for i := 0; i < warmupCycles; i++ {
		cycle(warm)
	}
	h.put("setup_s", time.Since(t0).Seconds())

	trickleFleet := newFleet("tr", 1, 8)
	trickle := newIngestConn(h, codecJSON, trickleFleet.sources, h.cfg.Seed+50)
	reader := newOpsReader(h, f, h.cfg.Seed+100)

	sm := startSampler(h.col)
	from := time.Now()
	end := from.Add(h.seconds(1))
	var wg sync.WaitGroup
	wg.Add(2)
	// What the trickle had acknowledged, and when, as of its last
	// acknowledgement inside the window.
	var trickled int64
	var trickleTook time.Duration
	go func() {
		defer wg.Done()
		p := newPacer(tricklePause, int(h.seconds(1)/tricklePause))
		for {
			_, due, ok := p.wait()
			if !ok || time.Now().After(end) {
				return
			}
			trickle.postNext(due)
			if now := time.Now(); now.Before(end) {
				trickled, trickleTook = trickle.acked, now.Sub(from)
			}
		}
	}()
	var readerTook time.Duration
	go func() {
		defer wg.Done()
		for time.Now().Before(end) {
			cycle(reader)
		}
		readerTook = time.Since(from)
	}()
	wg.Wait()
	cpu, rss, peak := sm.finish()
	if reader.ops == 0 || trickled == 0 {
		return fmt.Errorf("the timed window held %d reader requests and %d trickled violations", reader.ops, trickled)
	}
	ts := summarize(trickle.posts)
	if labels {
		h.put("throughput_per_s", float64(trickled)/trickleTook.Seconds())
		h.timing("latency_p50_ms", reader.rounds)
	} else {
		h.put("throughput_per_s", float64(reader.ops)/readerTook.Seconds())
		h.timing("latency_p50_ms", trickle.posts)
	}
	h.put("client.reader_requests_per_s", float64(reader.ops)/readerTook.Seconds())
	h.put("client.trickle_violations_per_s", float64(trickled)/trickleTook.Seconds())
	h.put("client.trickle_ack_p50_ms", ts.P50)
	h.put("client.trickle_ack_p95_ms", percentile(sorted(trickle.posts), 95))
	h.put("client.server_cpu_us_per_item", float64(cpu.Microseconds())/float64(reader.ops))
	h.put("server_rss_mb", rss)
	h.put("client.server_peak_rss_mb", peak)
	for name, l := range reader.series {
		h.timing(name, *l)
	}
	if l := reader.series["client.labels_next_p50_ms"]; l != nil {
		h.put("client.labels_next_max_ms", summarize(*l).Max)
	}

	acked := trickle.acked
	for _, c := range loaders {
		acked += c.acked
	}
	settleIngest(h, acked, append(append([]*fleetSource(nil), f.sources...), trickleFleet.sources...))
	if h.tr != nil {
		return opsLayerProbes(h, spec)
	}
	return nil
}

// queryFloor is the smallest preload at which every one of the 64 streams
// (a heartbeat stream fires once per sample, the others up to thrice)
// still retains queryLimit violations, so a short answer is always a
// failure and never a sizing accident.
const queryFloor = 20000

func runOpsQueryDisk(h *harness) error {
	return runOps(h, collectorSpec{Shards: 2, Store: storeDisk}, h.scaled(200000, queryFloor), false)
}

func runOpsQueryMem(h *harness) error {
	n := h.scaled(200000, queryFloor)
	return runOps(h, collectorSpec{Shards: 2, Store: storeMem, Retain: n}, n, false)
}

func runOpsLabelsDisk(h *harness) error {
	return runOps(h, collectorSpec{Shards: 2, Store: storeDisk}, h.scaled(50000, 4096), true)
}

func runOpsLabelsMem(h *harness) error {
	n := h.scaled(50000, 4096)
	return runOps(h, collectorSpec{Shards: 2, Store: storeMem, Retain: n}, n, true)
}
