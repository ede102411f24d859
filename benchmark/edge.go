package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

const (
	edgeStreams    = 4
	edgeChunk      = 64 // samples per ObserveBatch call in the saturated phase
	pacedPerTick   = 32 // samples per stream per tick in the paced phase
	pacedTick      = 10 * time.Millisecond
	noisyLateLimit = 20 * time.Millisecond
	// satShare of the window is the saturated phase, the rest the paced
	// one: throughput on two busy cores needs the longer look.
	satShare = 0.6
)

// tailSubscriber follows the collector's SSE tail for one stream and one
// assertion and notes when each sample index was first seen.
type tailSubscriber struct {
	cancel context.CancelFunc
	ready  chan struct{}
	done   chan struct{}

	mu        sync.Mutex
	firstSeen map[int]time.Time
	events    int64
	dropped   int64
	err       error
}

func subscribeTail(h *harness, stream, assertionName string) (*tailSubscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	t := &tailSubscriber{cancel: cancel, ready: make(chan struct{}), done: make(chan struct{}), firstSeen: map[int]time.Time{}}
	url := fmt.Sprintf("%s%s?stream=%s&assertion=%s", h.col.url(), tailPath, stream, assertionName)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET %s: %s", tailPath, resp.Status)
	}
	go func() {
		defer close(t.done)
		defer resp.Body.Close()
		var once sync.Once
		err := readSSE(resp.Body,
			func(string) { once.Do(func() { close(t.ready) }) }, // the greeting: we are subscribed
			func(ev sseEvent) bool {
				now := time.Now()
				t.mu.Lock()
				defer t.mu.Unlock()
				switch ev.Type {
				case "violation":
					var v struct {
						SampleIndex int `json:"sample_index"`
					}
					if err := json.Unmarshal([]byte(ev.Data), &v); err != nil {
						t.err = err
						return false
					}
					t.events++
					if _, seen := t.firstSeen[v.SampleIndex]; !seen {
						t.firstSeen[v.SampleIndex] = now
					}
				case "dropped":
					t.dropped++
				case "end":
					return false
				}
				return true
			})
		if err != nil && ctx.Err() == nil {
			t.mu.Lock()
			t.err = err
			t.mu.Unlock()
		}
	}()
	select {
	case <-t.ready:
		return t, nil
	case <-t.done:
		cancel()
		return nil, fmt.Errorf("tail stream ended before its greeting: %v", t.err)
	case <-time.After(10 * time.Second):
		cancel()
		return nil, fmt.Errorf("tail stream sent no greeting")
	}
}

// waitEvents waits until n violation events have arrived, or for timeout.
func (t *tailSubscriber) waitEvents(n int64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		t.mu.Lock()
		got := t.events
		t.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (t *tailSubscriber) close() {
	t.cancel()
	<-t.done
}

// runEdgeVideo: see the workload table in README.md.
func runEdgeVideo(h *harness) error {
	t0 := time.Now()
	spec := collectorSpec{Shards: 2, Store: storeMem, Retain: 100000} // omg-server's default -retain
	if err := h.startCollector(spec); err != nil {
		return err
	}
	feed := buildEdgeFeed(h.cfg.Seed, edgeStreams, h.scaled(5000, 200))
	var wrap func(violationSink) violationSink
	var sinkWait *aggregate
	if h.tr != nil {
		sinkWait = h.tr.aggregate("assertion.sink_record")
		wrap = wrapSpanSink(sinkWait)
	}
	edge, err := newEdgePipeline(feed, h.col.url(), h.client, wrap)
	if err != nil {
		return err
	}
	defer edge.close()
	h.put("setup_s", time.Since(t0).Seconds())

	// Phase sat: two producers, two streams each, closed loop on the
	// pool's back-pressure; through Flush.
	pos := make([]int, edgeStreams)
	sm := startSampler(h.col)
	satBegan := time.Now()
	end := satBegan.Add(h.seconds(satShare))
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunk := make([]sample, edgeChunk)
			for time.Now().Before(end) {
				for s := 2 * p; s < 2*p+2; s++ {
					feed.fill(chunk, s, pos[s])
					if err := edge.observeBatch(chunk); err != nil {
						errs <- err
						return
					}
					pos[s] += len(chunk)
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return fmt.Errorf("observe: %w", err)
	default:
	}
	if err := edge.flush(); err != nil {
		h.note("flush after the saturated phase: %v", err)
	}
	satTook := time.Since(satBegan)
	cpu, rss, _ := sm.finish()
	satSamples := edge.observed()
	h.attempt(int(satSamples))
	h.put("throughput_per_s", float64(satSamples)/satTook.Seconds())
	h.put("client.edge_samples_per_s", float64(satSamples)/satTook.Seconds())
	h.put("client.server_cpu_us_per_item", float64(cpu.Microseconds())/float64(satSamples))
	h.put("server_rss_mb", rss)

	// Phase paced: open loop at a fixed sub-saturation rate; an SSE
	// subscriber times each cam-00 multibox firing from the due time of
	// the tick that carried its sample.
	tail, err := subscribeTail(h, streamKey(0), tailAssertion)
	if err != nil {
		return err
	}
	defer tail.close()
	edge.counting.Store(true)
	pacedBase := pos[0]
	ticks := max(int(h.seconds(1-satShare)/pacedTick), 1)
	pc := newPacer(pacedTick, ticks)
	batch := make([]sample, edgeStreams*pacedPerTick)
	for {
		_, _, ok := pc.wait()
		if !ok {
			break
		}
		for s := 0; s < edgeStreams; s++ {
			feed.fill(batch[s*pacedPerTick:(s+1)*pacedPerTick], s, pos[s])
			pos[s] += pacedPerTick
		}
		if err := edge.observeBatch(batch); err != nil {
			return fmt.Errorf("observe: %w", err)
		}
	}
	h.attempt(ticks * len(batch))
	if err := edge.flush(); err != nil {
		h.note("flush after the paced phase: %v", err)
	}
	edge.counting.Store(false)
	wantEvents := edge.tailFirings.Load()
	tail.waitEvents(wantEvents, 5*time.Second)
	tail.close()

	var detect latencies
	for idx, seen := range tail.firstSeen {
		tick := (idx - pacedBase) / pacedPerTick
		if idx < pacedBase || tick >= ticks {
			h.fail(1, "tail event for sample %d, outside the paced phase", idx)
			continue
		}
		detect.add(seen.Sub(pc.due(tick)))
	}
	ds := h.timing("latency_p50_ms", detect)
	h.put("client.detect_p50_ms", ds.P50)
	h.put("client.detect_tail_ms", ds.Tail)
	h.put("client.pacer_max_late_ms", ms(pc.maxLate))
	h.res.Noisy = pc.maxLate > noisyLateLimit
	h.put("client.server_peak_rss_mb", h.col.usage().PeakMB)

	// Gates: nothing the edge fired may be missing anywhere downstream.
	st := edge.sinkStats()
	var sum summaryResponse
	if err := getJSON(h.client, h.col.url()+summaryPath, &sum); err != nil {
		return err
	}
	fired := edge.fired()
	h.check(tail.err == nil, "tail stream: %v", tail.err)
	h.check(st.delivered == fired, "HTTPSink delivered %d of %d fired violations", st.delivered, fired)
	h.check(int64(sum.TotalFired) == fired, "collector total_fired %d != %d fired at the edge", sum.TotalFired, fired)
	h.check(st.dropped == 0, "HTTPSink dropped %d violations", st.dropped)
	h.check(sum.Rejected == 0 && sum.DuplicateBatches == 0, "collector rejected %d, deduplicated %d", sum.Rejected, sum.DuplicateBatches)
	h.check(tail.dropped == 0, "tail reported %d dropped events", tail.dropped)
	h.check(tail.events == wantEvents, "tail delivered %d events, the pool fired %d on %s", tail.events, wantEvents, streamKey(0))
	h.check(len(detect) > 0, "no detection was timed")
	h.failed.Add(st.dropped)

	if h.tr != nil {
		h.put("assertion.sink_wait_ms", float64(sinkWait.ns.Load())/1e6)
		h.put("assertion.violations_per_sample", float64(fired)/float64(edge.observed()))
		h.put("export.httpsink_batch_mean", float64(st.delivered)/float64(max(st.batches, 1)))
		h.put("export.httpsink_retries", float64(st.retries))
		h.put("export.httpsink_dropped", float64(st.dropped))
		return edgeLayerProbes(h, feed, spec)
	}
	return nil
}
