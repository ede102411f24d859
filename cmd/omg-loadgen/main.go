// Command omg-loadgen is the chaos harness for the export path's
// exactly-once contract: it replays the six seed domains as
// hundreds of concurrent synthetic streams through real export.HTTPSink
// pipelines against a live omg-server it spawns and supervises, while a
// seeded, deterministic fault schedule attacks every layer — 429 storms,
// 5xx bursts and timeouts injected by a fault proxy between the sinks
// and the collector, SIGSTOP/SIGCONT freezes, SIGKILL + restart crashes,
// and ENOSPC disk-full injection (the collector's -chaos-disk-full-after
// flag) healed by restart.
//
// At exit it asserts the global conservation invariant over everything
// the streams observed:
//
//   - edge books balance: for every sink, recorded == delivered + dropped
//     (no violation leaves the edge unaccounted);
//   - nothing is silently lost: the healed collector holds at least every
//     delivered (acknowledged) violation;
//   - nothing is manufactured: the collector holds at most
//     delivered + dropped (anything beyond delivered is a batch whose
//     apply survived a crash but whose acknowledgement was lost — the
//     edge counted it dropped, so it is still accounted, just
//     conservatively twice, and reported as ack_lost_applied);
//   - nothing is duplicated: every retained (stream, sample, assertion)
//     triple is unique and the retained count equals the aggregate total;
//   - recovery is exact: /v1/summary and the full retained violation set
//     are byte-identical across a final SIGKILL + restart.
//
// Any failed check makes the run exit non-zero; -report writes the full
// JSON accounting either way.
//
// Usage:
//
//	omg-loadgen -server-bin ./bin/omg-server [-duration 30s] [-seed 1]
//	            [-streams 200] [-sinks 20] [-rate 20] [-data-dir DIR]
//	            [-report chaos_report.json] [-shards 4] [-chaos none|all]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"omg/internal/assertion"
	"omg/internal/domains/avscenes"
	"omg/internal/domains/heartbeat"
	"omg/internal/domains/newsroom"
	"omg/internal/domains/nightstreet"
	"omg/internal/export"
	"omg/internal/simrand"
)

// domainProfile shapes one seed domain's synthetic replay: its assertion
// vocabulary (taken from the real domain packages where they export
// names) and a severity range matching the domain's score scale.
type domainProfile struct {
	name       string
	assertions []string
	sevLo      float64
	sevHi      float64
}

func domainProfiles() []domainProfile {
	news := make([]string, 0, len(newsroom.AttrKeys))
	for _, attr := range newsroom.AttrKeys {
		news = append(news, "news:flicker:"+attr)
	}
	return []domainProfile{
		{"nightstreet", nightstreet.AssertionNames, 0.3, 3},
		{"avscenes", avscenes.AssertionNames, 0.3, 3},
		{"heartbeat", []string{heartbeat.AssertionName}, 1, 2},
		{"newsroom", news, 0.5, 2},
		{"lidar", []string{"lidar:agree", "lidar:multibox"}, 0.3, 3},
		{"video", []string{"video:flicker", "video:appear"}, 0.3, 3},
	}
}

// phase is one step of the fault schedule.
type phase struct {
	Name  string        `json:"name"`
	Start float64       `json:"start_s"` // seconds into the run
	Dur   time.Duration `json:"-"`
	DurS  float64       `json:"dur_s"`
}

// buildSchedule carves the run into warmup → shuffled fault phases →
// drain. The shuffle (and everything else random in the run) derives
// from the single seed, so a schedule replays exactly.
func buildSchedule(seed int64, total time.Duration, chaos bool) []phase {
	warmup := time.Duration(float64(total) * 0.1)
	drain := time.Duration(float64(total) * 0.2)
	if !chaos {
		return []phase{{Name: "healthy", Dur: total - drain}, {Name: "drain", Dur: drain}}
	}
	faults := []string{"storm429", "errors500", "timeouts", "sigstop", "sigkill", "diskfull"}
	rng := simrand.NewStream(seed, "loadgen-schedule")
	rng.Shuffle(len(faults), func(i, j int) { faults[i], faults[j] = faults[j], faults[i] })
	middle := total - warmup - drain
	per := middle / time.Duration(len(faults))
	ps := []phase{{Name: "warmup", Dur: warmup}}
	for _, f := range faults {
		ps = append(ps, phase{Name: f, Dur: per})
	}
	ps = append(ps, phase{Name: "drain", Dur: drain})
	at := time.Duration(0)
	for i := range ps {
		ps[i].Start = at.Seconds()
		ps[i].DurS = ps[i].Dur.Seconds()
		at += ps[i].Dur
	}
	return ps
}

// sinkReport is one sink's final books in the JSON report.
type sinkReport struct {
	Source    string            `json:"source"`
	Wire      string            `json:"wire"`
	Recorded  int64             `json:"recorded"`
	Delivered int64             `json:"delivered"`
	Dropped   int64             `json:"dropped"`
	Retries   int64             `json:"retries"`
	Drops     export.DropCounts `json:"drops"`
}

// report is the run's full accounting, written to -report.
type report struct {
	Seed     int64   `json:"seed"`
	Duration float64 `json:"duration_s"`
	Streams  int     `json:"streams"`
	Sinks    int     `json:"sinks"`
	Schedule []phase `json:"schedule"`

	Recorded  int64             `json:"recorded"`
	Delivered int64             `json:"delivered"`
	Dropped   int64             `json:"dropped"`
	Drops     export.DropCounts `json:"drops"` // Dropped by reason
	Retries   int64             `json:"retries"`

	CollectorTotal    int   `json:"collector_total_fired"`
	CollectorRetained int   `json:"collector_retained"`
	UniqueTriples     int   `json:"unique_triples"`
	AckLostApplied    int64 `json:"ack_lost_applied"`
	DuplicateBatches  int64 `json:"duplicate_batches"`
	RejectedBatches   int64 `json:"rejected_batches"`

	Injected429  int64 `json:"injected_429"`
	Injected500  int64 `json:"injected_500"`
	InjectedHang int64 `json:"injected_timeouts"`

	RecoveryIdentical bool         `json:"recovery_identical"`
	SinkStats         []sinkReport `json:"sink_stats"`
	Violations        []string     `json:"invariant_violations"`
	OK                bool         `json:"ok"`
}

func main() {
	serverBin := flag.String("server-bin", "omg-server", "path to the omg-server binary to spawn and attack")
	duration := flag.Duration("duration", 30*time.Second, "total run length including warmup and drain")
	seed := flag.Int64("seed", 1, "master seed: schedule, stream contents and pacing all derive from it")
	streams := flag.Int("streams", 200, "concurrent synthetic violation streams (spread across the six seed domains)")
	sinkN := flag.Int("sinks", 20, "HTTPSink pipelines the streams multiplex over (each one wire source)")
	rate := flag.Float64("rate", 20, "violations per second per stream (before fault backpressure)")
	dataDir := flag.String("data-dir", "", "collector data directory (default: a temp dir, removed on success)")
	reportPath := flag.String("report", "", "write the JSON accounting report here")
	shards := flag.Int("shards", 4, "collector ingest shards")
	chaos := flag.String("chaos", "all", "fault schedule: all (the full seeded schedule) or none (pure load)")
	flag.Parse()
	if *streams < 1 || *sinkN < 1 || *streams < *sinkN {
		log.Fatalf("need -streams >= -sinks >= 1")
	}
	if *chaos != "all" && *chaos != "none" {
		log.Fatalf("-chaos must be all or none")
	}

	dir := *dataDir
	keepData := dir != ""
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "omg-loadgen"); err != nil {
			log.Fatal(err)
		}
	}

	proc := &collectorProc{bin: *serverBin, dataDir: dir, shards: *shards}
	if err := proc.start(); err != nil {
		log.Fatalf("start collector: %v", err)
	}
	defer proc.terminate()

	// Ctrl-C must not orphan the child collector.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigCh
		proc.kill()
		os.Exit(130)
	}()

	proxy, err := newFaultProxy(proc.baseURL())
	if err != nil {
		proc.kill()
		log.Fatalf("start fault proxy: %v", err)
	}

	// The sink fleet: each sink is one wire source; streams multiplex
	// over them round-robin. Half speak JSON, half binary, and all run
	// the one delivery policy under a 6s per-batch deadline.
	sinks := make([]*export.HTTPSink, *sinkN)
	for i := range sinks {
		wire := export.CodecJSON
		if i%2 == 1 {
			wire = export.CodecBinary
		}
		s, err := export.NewHTTPSink(export.HTTPSinkConfig{
			BaseURL:  proxy.url(),
			Source:   fmt.Sprintf("loadgen-%02d", i),
			Wire:     wire,
			BatchMax: 64,
			Deadline: 6 * time.Second,
		})
		if err != nil {
			proc.kill()
			log.Fatalf("sink %d: %v", i, err)
		}
		sinks[i] = s
	}

	// The stream fleet.
	profiles := domainProfiles()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var recorded atomic.Int64
	for i := 0; i < *streams; i++ {
		prof := profiles[i%len(profiles)]
		sink := sinks[i%len(sinks)]
		key := fmt.Sprintf("lg-%s-%03d", prof.name, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := simrand.NewStream(*seed, "loadgen-"+key)
			interval := time.Duration(float64(time.Second) / *rate)
			for sample := 1; ; sample++ {
				v := assertion.Violation{
					Assertion:   prof.assertions[rng.Choice(len(prof.assertions))],
					Stream:      key,
					SampleIndex: sample,
					Time:        float64(sample) / 30,
					Severity:    rng.Uniform(prof.sevLo, prof.sevHi),
				}
				// Record blocks when the queue is full — backpressure
				// during faults slows the stream instead of losing data
				// unaccounted.
				if err := sink.Record(v); err != nil {
					return
				}
				recorded.Add(1)
				wait := time.Duration(rng.Uniform(0.5, 1.5) * float64(interval))
				select {
				case <-stop:
					return
				case <-time.After(wait):
				}
			}
		}()
	}

	// Run the seeded fault schedule.
	schedule := buildSchedule(*seed, *duration, *chaos == "all")
	began := time.Now()
	for _, ph := range schedule {
		log.Printf("phase %-9s for %s (t+%.1fs)", ph.Name, ph.Dur.Round(time.Millisecond), time.Since(began).Seconds())
		runPhase(ph, proc, proxy)
	}

	// Heal everything, stop the streams, drain the sinks.
	proxy.setMode(modePass)
	if err := proc.waitHealthy(10 * time.Second); err != nil {
		log.Printf("warning: %v", err)
	}
	close(stop)
	wg.Wait()
	var sinkWG sync.WaitGroup
	for _, s := range sinks {
		sinkWG.Add(1)
		go func(s *export.HTTPSink) { defer sinkWG.Done(); s.Close() }(s)
	}
	sinkWG.Wait()

	rep := &report{
		Seed: *seed, Duration: time.Since(began).Seconds(),
		Streams: *streams, Sinks: *sinkN, Schedule: schedule,
		Recorded:     recorded.Load(),
		Injected429:  proxy.injected429.Load(),
		Injected500:  proxy.injected500.Load(),
		InjectedHang: proxy.injectedHang.Load(),
	}
	for _, s := range sinks {
		st := s.Stats()
		rep.Delivered += st.Delivered
		rep.Dropped += st.Dropped
		rep.Retries += st.Retries
		rep.SinkStats = append(rep.SinkStats, sinkReport{
			Source: s.Source(), Wire: st.Wire,
			Recorded:  st.Delivered + st.Dropped, // see edge-books check below
			Delivered: st.Delivered,
			Dropped:   st.Dropped,
			Retries:   st.Retries,
			Drops:     st.Drops,
		})
		d := &rep.Drops
		d.Deadline += st.Drops.Deadline
		d.CircuitOpen += st.Drops.CircuitOpen
		d.Rejected += st.Drops.Rejected
		d.NonFinite += st.Drops.NonFinite
	}

	checkConservation(rep, proc)
	checkRecovery(rep, proc, proxy)

	proc.terminate()
	rep.OK = len(rep.Violations) == 0
	if *reportPath != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*reportPath, append(data, '\n'), 0o644); err != nil {
			log.Printf("write report: %v", err)
		}
	}
	fmt.Printf("omg-loadgen: recorded=%d delivered=%d dropped=%d %+v retries=%d collector=%d ack_lost=%d faults={429:%d,500:%d,timeout:%d}\n",
		rep.Recorded, rep.Delivered, rep.Dropped, rep.Drops, rep.Retries,
		rep.CollectorTotal, rep.AckLostApplied,
		rep.Injected429, rep.Injected500, rep.InjectedHang)
	if !rep.OK {
		for _, v := range rep.Violations {
			fmt.Printf("INVARIANT VIOLATION: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("conservation invariant holds: every violation accepted-once or counted-dropped; recovery byte-identical")
	if !keepData {
		os.RemoveAll(dir)
	}
}

// runPhase executes one schedule step against the proxy and the
// collector process.
func runPhase(ph phase, proc *collectorProc, proxy *faultProxy) {
	sleep := func(d time.Duration) { time.Sleep(d) }
	switch ph.Name {
	case "warmup", "healthy", "drain":
		proxy.setMode(modePass)
		sleep(ph.Dur)
	case "storm429":
		proxy.setMode(modeReject429)
		sleep(ph.Dur)
		proxy.setMode(modePass)
	case "errors500":
		proxy.setMode(modeReject500)
		sleep(ph.Dur)
		proxy.setMode(modePass)
	case "timeouts":
		proxy.setMode(modeTimeout)
		sleep(ph.Dur)
		proxy.setMode(modePass)
	case "sigstop":
		// Freeze the collector: connections accept (kernel backlog) but
		// nothing answers, so the sinks see timeouts, then recovery.
		proc.signal(syscall.SIGSTOP)
		sleep(time.Duration(float64(ph.Dur) * 0.6))
		proc.signal(syscall.SIGCONT)
		sleep(time.Duration(float64(ph.Dur) * 0.4))
	case "sigkill":
		proc.kill()
		sleep(time.Duration(float64(ph.Dur) * 0.4))
		if err := proc.start(); err != nil {
			log.Fatalf("restart after sigkill: %v", err)
		}
		proxy.setBackend(proc.baseURL())
		proc.waitHealthy(10 * time.Second)
		sleep(time.Duration(float64(ph.Dur) * 0.6))
	case "diskfull":
		// Restart with the write budget nearly spent: the store faults
		// with injected ENOSPC almost immediately, the collector latches
		// degraded (503s, /healthz red), then a clean restart heals it.
		proc.kill()
		if err := proc.start("-chaos-disk-full-after", "4096"); err != nil {
			log.Fatalf("restart with disk fault: %v", err)
		}
		proxy.setBackend(proc.baseURL())
		sleep(time.Duration(float64(ph.Dur) * 0.6))
		proc.kill()
		if err := proc.start(); err != nil {
			log.Fatalf("restart after disk fault: %v", err)
		}
		proxy.setBackend(proc.baseURL())
		proc.waitHealthy(10 * time.Second)
		sleep(time.Duration(float64(ph.Dur) * 0.4))
	default:
		log.Fatalf("unknown phase %q", ph.Name)
	}
}

// fetchJSON GETs url and decodes the body into out.
func fetchJSON(url string, out any) error {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// checkConservation settles the global books against the healed
// collector and records any invariant violation on the report.
func checkConservation(rep *report, proc *collectorProc) {
	fail := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	// Edge books: the sinks' own contract, summed over the fleet.
	if rep.Recorded != rep.Delivered+rep.Dropped {
		fail("edge books unbalanced: recorded %d != delivered %d + dropped %d",
			rep.Recorded, rep.Delivered, rep.Dropped)
	}

	var sum export.SummaryResponse
	if err := fetchJSON(proc.baseURL()+"/v1/summary", &sum); err != nil {
		fail("fetch summary: %v", err)
		return
	}
	rep.CollectorTotal = sum.TotalFired
	rep.DuplicateBatches = sum.DuplicateBatches
	rep.RejectedBatches = sum.Rejected
	rep.AckLostApplied = int64(sum.TotalFired) - rep.Delivered

	// Nothing silently lost: everything acknowledged is present.
	if int64(sum.TotalFired) < rep.Delivered {
		fail("silent loss: collector holds %d < %d acknowledged", sum.TotalFired, rep.Delivered)
	}
	// Nothing manufactured: anything beyond the acknowledged set must be
	// covered by an edge-counted drop (an apply that survived a crash
	// whose acknowledgement did not).
	if int64(sum.TotalFired) > rep.Delivered+rep.Dropped {
		fail("over-count: collector holds %d > delivered %d + dropped %d",
			sum.TotalFired, rep.Delivered, rep.Dropped)
	}

	// Nothing duplicated: the retained set's (stream, sample, assertion)
	// triples are unique and account for the aggregate total exactly.
	var q export.QueryResponse
	if err := fetchJSON(proc.baseURL()+"/v1/violations/query?limit=0", &q); err != nil {
		fail("fetch query: %v", err)
		return
	}
	rep.CollectorRetained = q.Count
	triples := make(map[string]struct{}, q.Count)
	for _, v := range q.Violations {
		triples[fmt.Sprintf("%s|%d|%s", v.Stream, v.SampleIndex, v.Assertion)] = struct{}{}
	}
	rep.UniqueTriples = len(triples)
	if len(triples) != q.Count {
		fail("duplicated violations: %d retained but only %d unique triples", q.Count, len(triples))
	}
	if q.Count != sum.TotalFired {
		fail("retained %d != total fired %d (retention is unbounded: these must match)", q.Count, sum.TotalFired)
	}
}

// checkRecovery SIGKILLs the settled collector and verifies the restart
// reproduces its observable state byte-for-byte: the summary document
// and an order-independent hash of the full retained violation set.
func checkRecovery(rep *report, proc *collectorProc, proxy *faultProxy) {
	fail := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	fetch := func() (string, uint64, error) {
		client := &http.Client{Timeout: 30 * time.Second}
		resp, err := client.Get(proc.baseURL() + "/v1/summary")
		if err != nil {
			return "", 0, err
		}
		summary, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", 0, err
		}
		var q export.QueryResponse
		if err := fetchJSON(proc.baseURL()+"/v1/violations/query?limit=0", &q); err != nil {
			return "", 0, err
		}
		lines := make([]string, 0, len(q.Violations))
		for _, v := range q.Violations {
			lines = append(lines, fmt.Sprintf("%s|%d|%s|%g|%g|%d",
				v.Stream, v.SampleIndex, v.Assertion, v.Time, v.Severity, v.IngestUnix))
		}
		sort.Strings(lines)
		h := fnv.New64a()
		for _, l := range lines {
			io.WriteString(h, l)
			h.Write([]byte{'\n'})
		}
		return string(summary), h.Sum64(), nil
	}

	before, hashBefore, err := fetch()
	if err != nil {
		fail("recovery pre-state: %v", err)
		return
	}
	proc.kill()
	if err := proc.start(); err != nil {
		fail("recovery restart: %v", err)
		return
	}
	proxy.setBackend(proc.baseURL())
	if err := proc.waitHealthy(10 * time.Second); err != nil {
		fail("recovery health: %v", err)
		return
	}
	after, hashAfter, err := fetch()
	if err != nil {
		fail("recovery post-state: %v", err)
		return
	}
	rep.RecoveryIdentical = before == after && hashBefore == hashAfter
	if before != after {
		fail("recovery summary differs:\n before: %s\n after:  %s", before, after)
	}
	if hashBefore != hashAfter {
		fail("recovery violation set differs: hash %x -> %x", hashBefore, hashAfter)
	}
}
