package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"omg/internal/assertion"
	"omg/internal/export"
)

// renderSinkBench measures the violation export path beside the local
// baseline so the network hop shows up in the perf trajectory: the same
// violation stream is pushed through a JSONLSink writing to io.Discard
// and through an HTTPSink delivering to a loopback Collector, and both
// are timed end-to-end (Record through Flush). The collector's ingested
// count is checked against the sent count, so the benchmark doubles as a
// delivery smoke test.
func renderSinkBench(quick bool) (string, error) {
	n := 200000
	if quick {
		n = 20000
	}
	violations := make([]assertion.Violation, n)
	for i := range violations {
		violations[i] = assertion.Violation{
			Assertion:   "bench-assert",
			Stream:      fmt.Sprintf("cam-%02d", i%8),
			SampleIndex: i,
			Time:        float64(i) / 30,
			Severity:    1 + float64(i%5),
		}
	}

	drive := func(s assertion.Sink) (time.Duration, error) {
		start := time.Now()
		for _, v := range violations {
			if err := s.Record(v); err != nil {
				return 0, err
			}
		}
		if err := s.Flush(); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		return elapsed, s.Close()
	}

	jsonlTime, err := drive(assertion.NewJSONLSink(io.Discard, 4096))
	if err != nil {
		return "", fmt.Errorf("jsonl sink: %w", err)
	}

	collector, err := export.OpenCollector(export.CollectorConfig{})
	if err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: collector.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	httpSink, err := export.NewHTTPSink(export.HTTPSinkConfig{
		BaseURL:    "http://" + ln.Addr().String(),
		QueueDepth: 4096,
		BatchMax:   512,
	})
	if err != nil {
		return "", err
	}
	httpTime, err := drive(httpSink)
	if err != nil {
		return "", fmt.Errorf("http sink: %w", err)
	}
	if got := collector.TotalFired(); got != n {
		return "", fmt.Errorf("collector ingested %d of %d violations", got, n)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Sink throughput, %d violations (single producer):\n", n)
	fmt.Fprintf(&b, "  %-22s %10s %14s\n", "backend", "wall", "violations/s")
	row := func(name string, d time.Duration) {
		fmt.Fprintf(&b, "  %-22s %10s %14.0f\n", name, d.Round(time.Millisecond), float64(n)/d.Seconds())
	}
	row("jsonl (io.Discard)", jsonlTime)
	row("http (loopback)", httpTime)
	fmt.Fprintf(&b, "  http path: %d batches, %d retries, %d dropped, %.1fx jsonl wall time\n",
		httpSink.Batches(), httpSink.Retries(), httpSink.Dropped(),
		float64(httpTime)/float64(jsonlTime))
	return b.String(), nil
}

// renderFanInBench measures collector-side fan-in: many concurrent edge
// sources pushing decoded batches straight into Ingest, against a
// single-recorder collector and a sharded one. It is the contention the
// -shards flag of omg-server exists to remove — every source funnelling
// into one ring mutex versus sources spread across per-shard recorders —
// so the two rows quantify what sharding buys on this host. Ingested
// counts are verified, so the benchmark doubles as a correctness check.
func renderFanInBench(quick bool) (string, error) {
	batchesPerSource := 2000
	if quick {
		batchesPerSource = 200
	}
	const sources, perBatch = 8, 64
	total := sources * batchesPerSource * perBatch

	drive := func(shards int) (time.Duration, error) {
		c, err := export.OpenCollector(export.CollectorConfig{Shards: shards})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		start := time.Now()
		var wg sync.WaitGroup
		for s := 0; s < sources; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				source := fmt.Sprintf("edge-%02d", s)
				batch := export.Batch{Version: export.WireVersion, Source: source,
					Violations: make([]assertion.Violation, perBatch)}
				for i := range batch.Violations {
					batch.Violations[i] = assertion.Violation{
						Assertion: "bench-assert", Stream: source, SampleIndex: i, Severity: 1,
					}
				}
				for bi := 0; bi < batchesPerSource; bi++ {
					batch.Seq = uint64(bi + 1)
					c.Ingest(batch)
				}
			}(s)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if got := c.TotalFired(); got != total {
			return 0, fmt.Errorf("%d-shard collector ingested %d of %d violations", shards, got, total)
		}
		return elapsed, nil
	}

	singleTime, err := drive(1)
	if err != nil {
		return "", err
	}
	shards := runtime.GOMAXPROCS(0)
	if shards < 8 {
		shards = 8
	}
	shardedTime, err := drive(shards)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Collector fan-in, %d violations from %d concurrent sources:\n", total, sources)
	fmt.Fprintf(&b, "  %-22s %10s %14s\n", "collector", "wall", "violations/s")
	row := func(name string, d time.Duration) {
		fmt.Fprintf(&b, "  %-22s %10s %14.0f\n", name, d.Round(time.Millisecond), float64(total)/d.Seconds())
	}
	row("1 shard", singleTime)
	row(fmt.Sprintf("%d shards", shards), shardedTime)
	fmt.Fprintf(&b, "  sharded ingest: %.2fx the single-recorder throughput\n",
		float64(singleTime)/float64(shardedTime))
	return b.String(), nil
}
