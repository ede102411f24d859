// Distributed: a fleet of edge monitors exporting violations to one
// central collector — the deployed-pipeline topology of the paper (§2.3),
// where the model and the monitor rarely share a process. Each "edge" is
// an independent MonitorPool whose violations ship over loopback HTTP
// through an HTTPSink (batched, retried, exactly-once); the collector is
// the same engine behind cmd/omg-server, served in-process here so the
// example is self-contained. Ingest is sharded by source, a retention
// policy caps what the queryable log keeps per assertion, and a live-tail
// subscriber watches violations stream in over SSE as the fleet runs.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"

	"omg"
)

func main() {
	// 1. The collector: a sharded ingest/query service for the whole
	// fleet, listening on a loopback port. Batches route by source to one
	// of 4 shard stores (no fan-in contention), and the queryable log keeps
	// only the newest 500 violations per assertion — the aggregate counts
	// stay complete regardless.
	collector, err := omg.OpenCollector(omg.CollectorConfig{
		Retain:             10000,
		Shards:             4,
		RetainPerAssertion: 500,
		// The active-learning loop: BAL ranks the retained violations and
		// /v1/labels/next leases the most informative samples to labelers.
		Labels: omg.LabelConfig{Selector: "bal", Seed: 1, DefaultBudget: 5},
	})
	if err != nil {
		panic(err)
	}
	defer collector.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := &http.Server{Handler: collector.Handler()}
	go srv.Serve(ln)
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("collector listening on %s (%d ingest shards)\n", baseURL, collector.NumShards())

	// A live-tail subscriber: the ops view, watching hard temperature
	// jumps stream in over SSE while the fleet is still running.
	tailCtx, stopTail := context.WithCancel(context.Background())
	tailDone := make(chan int)
	go func() {
		tailDone <- tailJumps(tailCtx, baseURL)
	}()

	// 2. The shared assertion suite: the same checks every edge runs.
	reg := omg.NewRegistry()
	reg.MustAdd(omg.NewBoolAssertion("out-of-range", func(w []omg.Sample) bool {
		t := w[len(w)-1].Output.(float64)
		return t < -40 || t > 60
	}))
	reg.MustAdd(omg.NewAssertion("temp-jump", func(w []omg.Sample) float64 {
		if len(w) < 2 {
			return 0
		}
		jump := w[len(w)-1].Output.(float64) - w[len(w)-2].Output.(float64)
		if jump < 0 {
			jump = -jump
		}
		if jump > 5 {
			return jump
		}
		return 0
	}))
	suite := reg.Suite()

	// 3. The edges: each gets its own pool and its own HTTPSink (distinct
	// Source, so the collector tracks each sender's batches separately)
	// and drives a handful of sensors through the async path. The fleet is
	// mixed-wire on purpose: even-numbered edges ship the default JSON,
	// odd-numbered ones the binary frame codec — the collector dispatches
	// on Content-Type, so both land in the same dedup/store path.
	const edges, sensorsPerEdge, samples = 4, 4, 400
	var wg sync.WaitGroup
	for e := 0; e < edges; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			wire := omg.CodecJSON
			if e%2 == 1 {
				wire = omg.CodecBinary
			}
			sink, err := omg.NewHTTPSink(omg.HTTPSinkConfig{
				BaseURL:  baseURL,
				Source:   fmt.Sprintf("edge-%02d", e),
				BatchMax: 64,
				Wire:     wire,
			})
			if err != nil {
				panic(err)
			}
			pool := omg.NewMonitorPool(suite,
				omg.WithShards(2),
				omg.WithPoolWindowSize(8),
				omg.WithPoolSink(sink),
			)
			for s := 0; s < sensorsPerEdge; s++ {
				rng := rand.New(rand.NewSource(int64(e*100 + s)))
				key := fmt.Sprintf("edge-%02d/sensor-%02d", e, s)
				temp := 20.0
				for i := 0; i < samples; i++ {
					temp += rng.NormFloat64()
					reading := temp
					if rng.Float64() < 0.02 { // transient spike fault
						reading += 15 + 10*rng.Float64()
					}
					if err := pool.Enqueue(omg.Sample{
						Stream: key, Index: i, Time: float64(i) / 10, Output: reading,
					}); err != nil {
						panic(err)
					}
				}
			}
			// Close drains the pool and the HTTP sink: every violation is
			// delivered (or counted as dropped) before this returns.
			if err := pool.Close(); err != nil {
				panic(err)
			}
			st := sink.Stats()
			fmt.Printf("edge-%02d exported %d violations in %d batches over the %s wire\n",
				e, st.Delivered, st.Batches, st.Wire)
		}(e)
	}
	wg.Wait()

	// 4. The live tail has seen the fleet's jumps in real time; stop it
	// before reading the dashboard.
	stopTail()
	if n := <-tailDone; n > 0 {
		fmt.Printf("live tail streamed %d temp-jump violations while the fleet ran\n", n)
	}

	// 5. The fleet-wide dashboard, read back over the query API.
	var summary struct {
		TotalFired int            `json:"total_fired"`
		Assertions map[string]int `json:"assertions"`
		Batches    int64          `json:"batches"`
		Sources    int            `json:"sources"`
		Shards     int            `json:"shards"`
	}
	getJSON(baseURL+"/v1/summary", &summary)
	fmt.Printf("collector: %d violations from %d sources in %d batches across %d shards\n",
		summary.TotalFired, summary.Sources, summary.Batches, summary.Shards)
	for name, n := range summary.Assertions {
		fmt.Printf("  %-14s fired %4d times fleet-wide\n", name, n)
	}

	// Drill down: the last few hard jumps anywhere in the fleet.
	var q struct {
		Count      int             `json:"count"`
		Violations []omg.Violation `json:"violations"`
	}
	getJSON(baseURL+"/v1/violations/query?assertion=temp-jump&limit=3", &q)
	for _, v := range q.Violations {
		fmt.Printf("  recent jump on %s at sample %d (severity %.1f)\n",
			v.Stream, v.SampleIndex, v.Severity)
	}

	// 6. The active-learning loop: a labeler pulls the most informative
	// samples — the collector's BAL selector ranks every retained
	// violation by its per-assertion severity vector and leases a
	// budgeted, assertion-diverse batch — then posts the labels back,
	// which releases the leases and feeds the selector's next round.
	var batch omg.LabelsNextResponse
	getJSON(baseURL+omg.LabelsNextPath+"?puller=ops", &batch)
	fmt.Printf("label round %d (%s): %d samples leased for labeling\n",
		batch.Round, batch.Selector, batch.Count)
	feedback := omg.LabelsFeedbackRequest{Version: omg.WireVersion}
	for _, cand := range batch.Candidates {
		fmt.Printf("  %s sample %d from %s: %s (severity %.1f)\n",
			cand.Stream, cand.Sample, cand.Source, cand.TopAssertion, cand.MaxSeverity)
		feedback.Labels = append(feedback.Labels, omg.LabelFeedback{
			SampleKey:    cand.SampleKey,
			Label:        "sensor-fault",
			ModelCorrect: false, // every leased spike was a real fault
		})
	}
	body, err := json.Marshal(feedback)
	if err != nil {
		panic(err)
	}
	resp, err := http.Post(baseURL+omg.LabelsFeedbackPath, "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	resp.Body.Close()
	var stats omg.LabelStats
	getJSON(baseURL+omg.LabelsStatsPath, &stats)
	fmt.Printf("label loop: %d labeled (%d model errors found), round %d of selector %s\n",
		stats.Labeled, stats.ErrorsFound, stats.Round, stats.Selector)

	srv.Close()
}

// tailJumps subscribes to the collector's SSE live tail, filtered to the
// temp-jump assertion, and counts events until ctx is cancelled. Slow
// subscribers never stall ingest: the collector drops (and counts) what a
// laggard's bounded buffer cannot hold.
func tailJumps(ctx context.Context, baseURL string) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		baseURL+omg.TailPath+"?assertion=temp-jump", nil)
	if err != nil {
		panic(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() { // ends when ctx cancels the request
		if strings.HasPrefix(sc.Text(), "event: violation") {
			n++
		}
	}
	return n
}

func getJSON(url string, into any) {
	resp, err := http.Get(url)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		panic(err)
	}
}
