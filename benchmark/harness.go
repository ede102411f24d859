package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // length of the timed phase
	// Scale multiplies every fixed size (preloads, retention, the crash
	// state). 1 is the committed benchmark; the smoke test runs at 1/50.
	Scale float64
	// InProc runs the collector as the in-process twin instead of building
	// and spawning omg-server.
	InProc  bool
	TmpRoot string
}

// measured is one metric reading.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run observed.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// Noisy is set when the open-loop generator ran more than 20 ms late.
	Noisy bool `json:"noisy"`
	// ServerGOMAXPROCS is the collector's own go_gomaxprocs reading.
	ServerGOMAXPROCS int                 `json:"server_gomaxprocs"`
	Metrics          map[string]measured `json:"metrics"`
	Timings          map[string]string   `json:"timings,omitempty"` // median, supported tail, n — for people
	Failures         []string            `json:"failures,omitempty"`
}

// harness is the state of one run: the collector under test, the shared
// HTTP client, the tracer (nil when untraced) and the books.
type harness struct {
	cfg       runConfig
	tr        *tracer
	capture   *capture
	client    *http.Client
	tmp       string
	serverBin string // omg-server as built for this run; empty with cfg.InProc
	col       collector
	dataDir   string // the running collector's data directory
	scrape0   scrape // the collector's /metrics as the workload began

	attempted atomic.Int64
	failed    atomic.Int64

	mu  sync.Mutex
	res *result
}

func newHarness(cfg runConfig, tr *tracer) (*harness, error) {
	// Whatever ran before (another workload's gigabyte of segments, a
	// build) may have left dirty pages; flush them now so the kernel's
	// writeback does not land in this run's timed phase.
	syscall.Sync()
	tmp, err := os.MkdirTemp(cfg.TmpRoot, "omg-benchmark-")
	if err != nil {
		return nil, err
	}
	h := &harness{
		cfg:    cfg,
		tr:     tr,
		client: newHTTPClient(tr),
		tmp:    tmp,
		res: &result{
			Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: tr != nil,
			Correct: true, Metrics: map[string]measured{}, Timings: map[string]string{},
		},
	}
	if tr != nil {
		h.capture = &capture{max: replayFrames}
	}
	if !cfg.InProc {
		if err := h.buildServer(); err != nil {
			h.cleanup()
			return nil, err
		}
	}
	return h, nil
}

// buildServer builds omg-server from the checkout the harness was started
// in (run.sh changes to its root) into the run's temp directory. The time
// it takes is reported as client.build_s and is no part of setup_s.
func (h *harness) buildServer() error {
	h.serverBin = filepath.Join(h.tmp, "omg-server")
	t0 := time.Now()
	if out, err := exec.Command("go", "build", "-o", h.serverBin, "./cmd/omg-server").CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/omg-server (run from the checkout root): %w\n%s", err, out)
	}
	h.put("client.build_s", time.Since(t0).Seconds())
	return nil
}

// cleanup stops the collector and removes every file the run created. It
// may run twice, and while the workload is still using the collector (the
// interrupt path), so it leaves h.col in place: stopping a collector twice
// is harmless and its methods lock.
func (h *harness) cleanup() {
	h.mu.Lock()
	col := h.col
	h.mu.Unlock()
	if col != nil {
		col.stop()
	}
	os.RemoveAll(h.tmp)
}

// startCollector launches the collector the workload asked for, on a
// fresh data directory, as a process or as the twin.
func (h *harness) startCollector(spec collectorSpec) error {
	dataDir, err := os.MkdirTemp(h.tmp, "data-")
	if err != nil {
		return err
	}
	var col collector
	if h.cfg.InProc {
		var wrap func(http.Handler) http.Handler
		if h.tr != nil {
			wrap = spanMiddleware(h.tr, h.capture)
		}
		col, err = startInprocCollector(spec, dataDir, h.client, wrap)
	} else {
		col, err = startProcCollector(h.serverBin, spec, dataDir, h.client)
	}
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.col, h.dataDir = col, dataDir
	h.mu.Unlock()
	// One scrape as the collector comes up: the traced run's baseline for
	// the process-wide stage histograms, and the child's GOMAXPROCS.
	h.scrape0, err = scrapeMetrics(h)
	h.res.ServerGOMAXPROCS = int(h.scrape0.series["go_gomaxprocs"])
	return err
}

// put records a metric. The name must be defined in metrics.go.
func (h *harness) put(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("benchmark: metric " + name + " is not defined in metrics.go")
	}
	h.mu.Lock()
	h.res.Metrics[name] = measured{Value: v, Unit: unit}
	h.mu.Unlock()
}

// timing records a latency series' median under name and keeps the full
// summary (supported tail percentile, max, n) for the printed report.
func (h *harness) timing(name string, xs latencies) summary {
	s := summarize(xs)
	if s.N > 0 {
		h.put(name, s.P50)
		h.mu.Lock()
		h.res.Timings[name] = s.String()
		h.mu.Unlock()
	}
	return s
}

// attempt counts operations sent; fail counts the ones that were refused,
// answered wrongly or errored. A failed operation contributes to no
// latency series.
func (h *harness) attempt(n int) { h.attempted.Add(int64(n)) }

func (h *harness) fail(n int, format string, args ...any) {
	h.failed.Add(int64(n))
	h.note(format, args...)
}

// check is a correctness gate: a false condition makes the run incorrect.
func (h *harness) check(ok bool, format string, args ...any) {
	if !ok {
		h.note(format, args...)
	}
}

func (h *harness) note(format string, args ...any) {
	h.mu.Lock()
	h.res.Correct = false
	if len(h.res.Failures) < 20 { // the first few say what went wrong
		h.res.Failures = append(h.res.Failures, fmt.Sprintf(format, args...))
	}
	h.mu.Unlock()
}

// scaled applies the run's size scale to a committed size, never going
// below floor.
func (h *harness) scaled(n, floor int) int {
	return max(int(float64(n)*h.cfg.Scale), floor)
}

func (h *harness) seconds(share float64) time.Duration {
	return time.Duration(h.cfg.Seconds * share * float64(time.Second))
}

// finish closes the books.
func (h *harness) finish() *result {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.res.Attempted, h.res.Failed = h.attempted.Load(), h.failed.Load()
	if h.res.Failed > 0 || h.res.Attempted == 0 {
		h.res.Correct = false
	}
	return h.res
}

// workload is one traffic mix. run sets the system up, measures for
// cfg.Seconds, settles the books and records every metric it observed.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*harness) error
}

var workloads = []workload{
	{"edge_video", "edge-dominant: 4 night-street camera streams through MonitorPool and the JSON HTTPSink into a mem collector, saturated then paced with an SSE tail timing detection", runEdgeVideo},
	{"fleet_ingest", "collector-write-dominant: 2 closed-loop connections post binary 256-violation frames from 64 fleet streams into a disk collector whose retention compaction runs every second", runFleetIngest},
	{"ops_query_disk", "read-dominant on the disk store: dashboard refreshes (3 queries + summary) over 200K retained violations while a JSON trickle keeps ingesting", runOpsQueryDisk},
	{"ops_query_mem", "the same dashboard refreshes over the mem ring store, so a query gain on one backend that costs the other shows", runOpsQueryMem},
	{"ops_labels_disk", "label-loop-dominant: lease and feedback rounds over 50K retained violations beside the trickle; a pull holds the lock every ingest needs", runOpsLabelsDisk},
	{"ops_labels_mem", "the same label rounds over the mem ring store: candidate assembly reads the other backend's merged view", runOpsLabelsMem},
	{"crash_reopen", "recovery-dominant: SIGKILL and reopen a disk collector holding 1M violations; the fixed quiescent state that reopen time, first read and resident memory need", runCrashReopen},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOnce runs one workload once, untraced or under tr.
func runOnce(ctx context.Context, cfg runConfig, tr *tracer) (*result, error) {
	w, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	h, err := newHarness(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer h.cleanup()
	// An interrupt must not orphan the child or leave data directories.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			h.cleanup()
			os.Exit(interrupted)
		case <-done:
		}
	}()
	if err := w.run(h); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	return h.finish(), nil
}

// report prints every metric by name and unit, the timing summaries and
// any failure, for people; the machine-readable line comes after it.
func (r *result) report(w *os.File) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %v: correct=%v attempted=%d failed=%d noisy=%v\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Correct, r.Attempted, r.Failed, r.Noisy)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-44s %16.4f %s", name, m.Value, m.Unit)
		if t := r.Timings[name]; t != "" {
			fmt.Fprintf(w, "   [%s]", t)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
