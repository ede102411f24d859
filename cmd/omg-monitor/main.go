// Command omg-monitor demonstrates OMG's runtime-monitoring deployment
// (paper §2.3): it streams one or more simulated night-street deployments
// through a sharded MonitorPool holding the domain's three assertions,
// logs every violation through a pluggable sink backend, and prints a
// dashboard-style summary — the "populate dashboards" use the paper
// describes.
//
// It drives -streams N concurrent camera feeds (each with its own seed and
// stream key, one shard per stream) through the pool's asynchronous
// ingestion path, the pool's only one, at every N. The flags given pick
// the violation sinks: -log writes a local JSONL file,
// -export-url ships HTTP batches to an omg-server collector, both tee the
// export into the file, and neither records in memory only. The
// collector's data directory, not the edge, keeps the durable, bounded
// violation history.
//
// -wire, -export-batch and -export-deadline shape the exporter, so each
// is an error without -export-url.
// -export-deadline is the exporter's one delivery knob: the longest one
// batch may take before it is dropped and counted, so a dead or
// black-holed collector costs violations, each counted by reason in the
// exit line, never a stalled model.
//
// -metrics-addr starts an edge-side Prometheus /metrics listener so the
// source fleet is scrapeable (observe latency, shard queue depth and
// wait, export delivery telemetry); -debug-addr serves net/http/pprof on
// a separate gated listener for live profiling.
//
// Usage:
//
//	omg-monitor [-frames N] [-seed S] [-log violations.jsonl] [-streams N]
//	            [-export-url http://collector:9077] [-export-batch N]
//	            [-export-deadline D] [-wire json|binary]
//	            [-metrics-addr :9078] [-debug-addr :9079]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"omg/internal/assertion"
	"omg/internal/consistency"
	"omg/internal/domains/nightstreet"
	"omg/internal/export"
	"omg/internal/obs"
)

func main() {
	frames := flag.Int("frames", 2000, "number of video frames to monitor per stream")
	seed := flag.Int64("seed", 1, "simulation seed (stream i uses seed+i)")
	logPath := flag.String("log", "", "JSONL violation log path; with -export-url it holds a local copy of the export (default: stdout summary only)")
	streams := flag.Int("streams", 1, "number of concurrent camera streams")
	exportURL := flag.String("export-url", "", "export violations to the collector at this base URL, e.g. http://collector:9077")
	exportBatch := flag.Int("export-batch", 256, "violations coalesced per exported batch (with -export-url)")
	exportDeadline := flag.Duration("export-deadline", 10*time.Second, "longest one exported batch may take, attempts and retry waits together, before its violations count as dropped; the whole delivery policy derives from it (with -export-url)")
	wire := flag.String("wire", "json", "wire codec for exported batches: json or binary; falls back to json automatically when the collector refuses the codec (with -export-url)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics on this address (host:port; port 0 picks a free port)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (gated: off unless set)")
	flag.Parse()
	if *streams < 1 {
		log.Fatalf("-streams must be >= 1")
	}
	if *frames < 1 {
		log.Fatalf("-frames must be >= 1")
	}
	if *exportURL == "" {
		// The exporter's knobs shape nothing without an exporter: set
		// anyway, they would be silently ignored.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "wire", "export-batch", "export-deadline":
				log.Fatalf("-%s requires -export-url", f.Name)
			}
		})
	}
	if *exportBatch < 1 {
		log.Fatalf("-export-batch must be >= 1")
	}
	if *exportDeadline <= 0 {
		log.Fatalf("-export-deadline must be > 0")
	}

	// A full disk, a bad path or an unreachable collector must not
	// silently truncate the violation stream: every sink error path below
	// exits non-zero.
	var sink assertion.Sink
	var httpSink *export.HTTPSink
	var jsonlSink *assertion.JSONLSink
	var logFile *os.File
	if *exportURL != "" {
		cfg := export.HTTPSinkConfig{
			BaseURL: *exportURL, BatchMax: *exportBatch, Deadline: *exportDeadline,
			Wire: *wire,
		}
		var err error
		if httpSink, err = export.NewHTTPSink(cfg); err != nil {
			log.Fatalf("build http sink: %v", err)
		}
		sink = httpSink
	}
	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			log.Fatalf("create log: %v", err)
		}
		logFile = f
		jsonlSink = assertion.NewJSONLSink(f)
		sink = jsonlSink
		if httpSink != nil {
			// -log beside -export-url: tee the export into the file.
			sink = assertion.NewMultiSink(httpSink, jsonlSink)
		}
	}

	// Every stream runs the same model and assertion suite; the suite's
	// assertions are pure functions of the sample window, so one suite
	// serves all shards.
	domains := make([]*nightstreet.Domain, *streams)
	for i := range domains {
		domains[i] = nightstreet.New(nightstreet.Config{
			Seed: *seed + int64(i), PoolFrames: *frames, TestFrames: 100,
		})
	}
	suite := domains[0].Suite()

	popts := []assertion.PoolOption{
		assertion.WithShards(*streams),
		assertion.WithPoolWindowSize(8),
		assertion.WithPoolRecorder(assertion.NewRecorder(10000)),
	}
	if sink != nil {
		popts = append(popts, assertion.WithPoolSink(sink))
	}
	pool := assertion.NewMonitorPool(suite, popts...)

	// Edge telemetry: the pool's queue depth and (with -export-url) the
	// exporter's delivery counters read live at scrape time, alongside the
	// stage histograms the instrumented packages registered at init.
	reg := obs.Default()
	reg.NewGaugeFunc("omg_pool_queue_depth",
		"Samples queued on shard queues or in flight with a pool worker.",
		func() float64 { return float64(pool.Pending()) })
	if httpSink != nil {
		reg.NewGaugeFunc("omg_export_queue_depth",
			"Violations buffered in the HTTP exporter, not yet shipped.",
			func() float64 { return float64(httpSink.Stats().Queued) })
		reg.NewCounterFunc("omg_export_delivered_total",
			"Violations acknowledged by the collector.",
			func() float64 { return float64(httpSink.Delivered()) })
		reg.NewCounterFunc("omg_export_retries_total",
			"Failed batch ship attempts that were retried.",
			func() float64 { return float64(httpSink.Retries()) })
		reg.NewCounterFunc("omg_export_dropped_total",
			"Violations dropped: at a batch's delivery deadline, by the open circuit, rejected by the collector, or non-finite.",
			func() float64 { return float64(httpSink.Dropped()) })
	}
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("listen metrics %s: %v", *metricsAddr, err)
		}
		// The resolved-address line is the handshake scripts and tests
		// scrape to learn the port when -metrics-addr ends in :0.
		fmt.Printf("omg-monitor metrics on http://%s/metrics\n", ln.Addr())
		go func() {
			srv := &http.Server{Handler: mux}
			if err := srv.Serve(ln); err != nil {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("listen debug %s: %v", *debugAddr, err)
		}
		fmt.Printf("omg-monitor debug on http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			srv := &http.Server{Handler: obs.NewDebugMux()}
			if err := srv.Serve(ln); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	// Corrective action: a real deployment might disengage an autopilot;
	// here we count high-severity events. Actions may run concurrently
	// across shards, hence the mutex.
	var highMu sync.Mutex
	highSeverity := 0
	pool.OnViolation(3, func(v assertion.Violation) {
		highMu.Lock()
		highSeverity++
		highMu.Unlock()
	})

	// Drive the deployments: each stream runs its model per frame and
	// enqueues every (input, output) into the pool — exactly OMG's
	// post-inference callback, but N cameras wide.
	var wg sync.WaitGroup
	for i, d := range domains {
		wg.Add(1)
		go func(i int, d *nightstreet.Domain) {
			defer wg.Done()
			key := fmt.Sprintf("cam-%02d", i)
			stream := d.DetectTracked(d.Pool())
			for _, s := range consistency.Samples(stream) {
				s.Stream = key
				if err := pool.Enqueue(s); err != nil {
					log.Printf("stream %s: %v", key, err)
					return
				}
			}
		}(i, d)
	}
	wg.Wait()
	// Close drains the pipeline, flushes the recorder and closes the
	// pool-owned sink; any sink error surfaces here. Drops must never be
	// silent: the exit line names each backend's drops out of the total,
	// beside the sink's own error. A tee hands every violation to both
	// backends, so one sum over them would count a violation twice.
	if err := pool.Close(); err != nil {
		if pool.Recorder().SinkDropped() > 0 && sink.Err() != nil {
			var drops []string
			if httpSink != nil {
				drops = append(drops, fmt.Sprintf("export sink dropped %d of %d violations; export drops by reason %+v",
					httpSink.Dropped(), pool.TotalFired(), httpSink.Stats().Drops))
			}
			if jsonlSink != nil {
				drops = append(drops, fmt.Sprintf("log sink dropped %d of %d violations",
					jsonlSink.Dropped(), pool.TotalFired()))
			}
			log.Fatalf("drain monitor pool: %v (%s)", sink.Err(), strings.Join(drops, "; "))
		}
		log.Fatalf("drain monitor pool: %v", err)
	}

	fmt.Printf("monitored %d frames across %d streams (%d shards) with %d assertions\n",
		pool.Observed(), pool.NumStreams(), pool.NumShards(), suite.Len())
	fmt.Printf("violations recorded: %d (high severity: %d)\n", pool.TotalFired(), highSeverity)
	for _, name := range pool.AssertionNames() {
		st, _ := pool.Stats(name)
		fmt.Printf("  %-18s fired %5d times, max severity %.1f\n", name, st.Fired, st.MaxSev)
	}

	if logFile != nil {
		if err := logFile.Close(); err != nil {
			log.Fatalf("close log: %v", err)
		}
	}
	if httpSink != nil {
		st := httpSink.Stats()
		fmt.Printf("exported %d violations in %d batches to %s (%d retries, %d dropped, %d queued)\n",
			st.Delivered, st.Batches, *exportURL, st.Retries, st.Dropped, st.Queued)
		if st.WireFellBack {
			fmt.Printf("wire codec fell back to json (collector does not accept %s)\n", *wire)
		} else if st.Wire != "json" {
			fmt.Printf("wire codec: %s\n", st.Wire)
		}
	}
	if sink != nil && *logPath != "" {
		fmt.Printf("JSONL violation log written to %s\n", *logPath)
	}
}
