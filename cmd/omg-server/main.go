// Command omg-server is the collector side of networked monitoring: it
// ingests violation batches exported by edge monitors (omg-monitor
// -export-url, or any client speaking the internal/export wire format)
// into a sharded set of recorders and serves aggregate and per-violation
// queries — the central dashboard feed of the paper's deployment story
// (§2.3).
//
// Endpoints:
//
//	POST /v1/violations        ingest one wire batch (exactly-once per source+seq)
//	GET  /v1/summary           per-assertion firing counts + totals
//	GET  /v1/violations/query  retained violations, ?assertion= ?stream= ?limit=
//	GET  /v1/violations/tail   SSE live tail, ?assertion= ?stream= (violation + weaklabel events)
//	GET  /v1/labels/next       lease the next labeling batch, ?budget= ?puller=
//	POST /v1/labels/feedback   post labels back: marks samples labeled, releases leases
//	GET  /v1/labels/stats      label loop summary
//	GET  /healthz              liveness (503 once shutdown has begun)
//	GET  /metrics              Prometheus text format
//
// The labels endpoints close the paper's active-learning loop (§3): the
// collector assembles per-sample candidates from the retained violations,
// ranks them with -label-selector (BAL, the paper's Algorithm 2, by
// default; or one of its baselines uncertainty, uniform-ma, random), and
// leases budgeted, per-assertion-diverse batches for -lease-ttl so two
// pullers never hold the same sample. With -store=disk the selector's
// round state, the leases and the labeled set persist under -data-dir and
// survive SIGKILL.
//
// Ingest fan-in scales with -shards: batches route by source, so
// concurrent senders append to independent recorders. -retain-age and
// -retain-per-assertion age out the queryable log (evictions are counted
// in /metrics; aggregate counts stay complete), compacted every
// -compact-every.
//
// The collector's state is durable in one way only: with -store=disk
// every shard appends to segment files under -data-dir (rolled at
// 64 MiB), dedup marks and counters go to a write-ahead log and the
// label loop to a snapshot and a delta log beside them, so a restarted —
// even a SIGKILL'd — server resumes its exact state: counts, retained
// violations, exactly-once dedup marks and leases. The default
// -store=mem keeps everything in memory and loses it at exit. The data
// directory is also the collector's one bounded violation log: segments
// roll at 64 MiB and -retain-age/-retain-per-assertion compaction drops
// what the policy evicts.
//
// "omg-server import" migrates a snapshot file an older server wrote
// with its since-removed -snapshot flag into an empty data directory,
// once; the server then runs on that directory with -store=disk and the
// same -shards. A snapshot a -store=disk server wrote is refused: its
// data directory already is its state.
//
// Usage:
//
//	omg-server [-addr :9077] [-retain N] [-shards N]
//	           [-retain-age DUR] [-retain-per-assertion N] [-compact-every DUR]
//	           [-store mem|disk] [-data-dir DIR]
//	           [-label-selector bal|uncertainty|uniform-ma|random]
//	           [-label-seed N] [-label-budget N] [-lease-ttl DUR]
//	           [-drain DUR] [-debug-addr :PORT]
//	           [-chaos-disk-full-after BYTES]
//	omg-server import -data-dir DIR [-shards N] SNAPSHOT.json
//
// -debug-addr serves net/http/pprof on a separate gated listener —
// profiling stays off the public collector port and off entirely unless
// the flag is set.
//
// Ingest admission is the same on every request. A retry of an
// already-applied batch is acknowledged from its X-OMG-Source and
// X-OMG-Seq headers before anything else, a body over 32 MiB answers
// 413, and a disk store that stops accepting writes (ENOSPC — or
// -chaos-disk-full-after, which injects it deterministically for chaos
// drills) latches the collector degraded: ingest answers 503 with a
// Retry-After the sinks honor, /healthz reports it, queries keep serving
// from memory. Every rejection is counted by reason in /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"omg/internal/export"
	"omg/internal/labelsvc"
	"omg/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "import" {
		importSnapshot(os.Args[2:])
		return
	}
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: omg-server [flags]\n       omg-server import -data-dir DIR [-shards N] SNAPSHOT.json\n")
		flag.PrintDefaults()
	}
	addr := flag.String("addr", ":9077", "listen address (host:port; port 0 picks a free port)")
	retain := flag.Int("retain", 100000, "-store=mem: violations to retain in memory for queries, across all shards (0 = unbounded)")
	shards := flag.Int("shards", 1, "ingest shards; batches route by source so concurrent senders do not contend on one recorder")
	retainAge := flag.Duration("retain-age", 0, "evict retained violations older than this, by ingest time (0 = no age bound)")
	retainPer := flag.Int("retain-per-assertion", 0, "keep only the newest N retained violations per assertion (0 = no cap)")
	compactEvery := flag.Duration("compact-every", 30*time.Second, "retention compaction period (with -retain-age or -retain-per-assertion)")
	storeKind := flag.String("store", export.StoreMem, "violation store backend: mem (in-memory, lost at exit) or disk (crash-recoverable segment files under -data-dir)")
	dataDir := flag.String("data-dir", "", "data directory for -store=disk (created if missing)")
	labelSelector := flag.String("label-selector", "bal", "label-selection strategy: bal, uncertainty, uniform-ma or random")
	labelSeed := flag.Int64("label-seed", 1, "seed for the label selector's per-round RNG derivation")
	labelBudget := flag.Int("label-budget", 16, "default /v1/labels/next batch size when the pull names no ?budget=")
	leaseTTL := flag.Duration("lease-ttl", 5*time.Minute, "how long a served label candidate stays exclusively leased to its puller")
	chaosDiskFullAfter := flag.Int64("chaos-disk-full-after", 0, "fault injection for -store=disk: fail segment writes with ENOSPC once this many bytes have been written, degrading ingest to 503 (0 = off; chaos testing only)")
	drain := flag.Duration("drain", 0, "after a shutdown signal, keep the listener answering (with /healthz reporting 503) this long so load balancers drain the instance first")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (gated: off unless set)")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// Each bad flag exits before serving, with its own message; the first
	// failing row wins.
	for _, check := range []struct {
		bad bool
		msg string
	}{
		{*retain < 0, "-retain must be >= 0"},
		{*shards < 1, "-shards must be >= 1"},
		{*retainAge < 0, "-retain-age must be >= 0"},
		{*retainPer < 0, "-retain-per-assertion must be >= 0"},
		{*compactEvery <= 0, "-compact-every must be positive"},
		{*storeKind == export.StoreDisk && *dataDir == "", "-store=disk requires -data-dir"},
		// A mem collector would silently ignore the directory and lose
		// everything at exit.
		{*dataDir != "" && *storeKind != export.StoreDisk, "-data-dir requires -store=disk"},
		{*labelBudget < 1, "-label-budget must be >= 1"},
		{*leaseTTL <= 0, "-lease-ttl must be positive"},
		{*drain < 0, "-drain must be >= 0"},
		{*chaosDiskFullAfter < 0, "-chaos-disk-full-after must be >= 0"},
		// A flag the chosen configuration never reads would be silently
		// ignored.
		{set["retain"] && *storeKind == export.StoreDisk, "-retain is ignored by -store=disk: bound it with -retain-age or -retain-per-assertion"},
		{set["chaos-disk-full-after"] && *storeKind != export.StoreDisk, "-chaos-disk-full-after requires -store=disk"},
		{set["compact-every"] && *retainAge == 0 && *retainPer == 0, "-compact-every requires -retain-age or -retain-per-assertion"},
	} {
		if check.bad {
			log.Fatal(check.msg)
		}
	}

	opened := time.Now()
	c, err := export.OpenCollector(export.CollectorConfig{
		Retain:              *retain,
		Shards:              *shards,
		RetainAge:           *retainAge,
		RetainPerAssertion:  *retainPer,
		CompactEvery:        *compactEvery,
		Store:               *storeKind,
		DataDir:             *dataDir,
		StoreFailAfterBytes: *chaosDiskFullAfter,
		Labels: labelsvc.Config{
			Selector:      *labelSelector,
			Seed:          *labelSeed,
			DefaultBudget: *labelBudget,
			LeaseTTL:      *leaseTTL,
		},
	})
	if err != nil {
		log.Fatalf("open collector: %v", err)
	}
	if *storeKind == export.StoreDisk {
		info := c.StoreInfo()
		log.Printf("disk store at %s: replayed %d retained violations (%d ever fired) from %d segments, %d bytes, in %s",
			*dataDir, info.Entries, c.TotalFired(), info.Segments, info.Bytes, time.Since(opened).Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	// Full-connection timeouts so a stalled or malicious peer cannot hold
	// a connection (and its handler goroutine) forever: slow-read bodies
	// die with ReadTimeout, slow-write responses with WriteTimeout, idle
	// keep-alives with IdleTimeout. The SSE tail endpoint is exempt from
	// WriteTimeout — it lifts the deadline itself via
	// http.ResponseController and polices its own per-write grace.
	srv := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	// The resolved address line is the startup handshake: scripts (and the
	// e2e tests) scrape it to learn the port when -addr ends in :0.
	fmt.Printf("omg-server listening on %s\n", ln.Addr())

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("listen debug %s: %v", *debugAddr, err)
		}
		fmt.Printf("omg-server debug on http://%s/debug/pprof/\n", dln.Addr())
		go func() {
			dsrv := &http.Server{
				Handler:           obs.NewDebugMux(),
				ReadHeaderTimeout: 10 * time.Second,
				ReadTimeout:       time.Minute,
				// Long enough for a 30s CPU or trace profile to stream out.
				WriteTimeout: 2 * time.Minute,
				IdleTimeout:  2 * time.Minute,
			}
			if err := dsrv.Serve(dln); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	exitCode := 0
	select {
	case sig := <-stop:
		log.Printf("received %s; shutting down", sig)
		if *drain > 0 {
			// Flip /healthz to 503 (Quiesce marks the collector closing)
			// and keep serving so load balancers notice and stop routing
			// here before the listener goes away.
			c.Quiesce()
			time.Sleep(*drain)
		}
	case err := <-errCh:
		// A serve failure must exit through the same shutdown sequence as
		// SIGTERM, so a disk store checkpoints.
		log.Printf("serve: %v; shutting down", err)
		exitCode = 1
	}

	// Quiesce before Shutdown (tail streams never end on their own, so
	// Shutdown would wait out its whole deadline on them), but close the
	// stores only after the drain: ingests still in flight during
	// Shutdown must land durably too.
	c.Quiesce()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := c.Close(); err != nil {
		log.Printf("close collector: %v", err)
		exitCode = 1
	}
	os.Exit(exitCode)
}

// importSnapshot is the import subcommand: it migrates one legacy snapshot
// file into an empty data directory for a -store=disk server with the
// same -shards, and exits.
func importSnapshot(args []string) {
	fs := flag.NewFlagSet("omg-server import", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: omg-server import -data-dir DIR [-shards N] SNAPSHOT.json\n")
		fs.PrintDefaults()
	}
	dataDir := fs.String("data-dir", "", "data directory for -store=disk to create (must be empty or absent)")
	shards := fs.Int("shards", 1, "ingest shards; the server must then run with the same -shards")
	fs.Parse(args)
	if *dataDir == "" || fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	if *shards < 1 {
		log.Fatalf("-shards must be >= 1")
	}
	s, err := export.ReadSnapshotFile(fs.Arg(0))
	if err != nil {
		log.Fatalf("import: %v", err)
	}
	if err := export.ImportSnapshot(*dataDir, *shards, s); err != nil {
		log.Fatalf("import: %v", err)
	}
	log.Printf("imported %s into %s; serve it with -store disk -data-dir %s -shards %d", fs.Arg(0), *dataDir, *dataDir, *shards)
}
