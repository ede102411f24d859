package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"omg/internal/assertion"
	"omg/internal/export"
	"omg/internal/store"
)

// This file races the two violation-store backends — the in-memory
// MemStore and the on-disk SegmentStore — over identical workloads, so
// the cost of durability is measured on the same host and binary. Ingest
// is driven through Collector.Ingest in wire batches: that is the
// deployed path omg-server's -store flag selects between, and it is
// where the disk backend pays its real per-batch costs (segment append,
// one flushing write syscall, a dedup-mark line). Queries and cold
// recovery run against the raw stores. The numbers go to BENCH_6.json;
// the repo's acceptance bar is disk ingest within 2x of mem.

// ingestBatch is the wire-batch size the ingest race ships — the same
// default HTTPSink batches at.
const ingestBatch = 256

// benchStoreReport is the machine-readable shape written to BENCH_6.json.
type benchStoreReport struct {
	Bench      string `json:"bench"`
	Quick      bool   `json:"quick"`
	Violations int    `json:"violations"`
	BatchSize  int    `json:"batch_size"`
	Queries    int    `json:"queries"`

	Ingest struct {
		MemNsPerOp  float64 `json:"mem_ns_per_op"`
		DiskNsPerOp float64 `json:"disk_ns_per_op"`
		MemPerSec   float64 `json:"mem_violations_per_sec"`
		DiskPerSec  float64 `json:"disk_violations_per_sec"`
		DiskOverMem float64 `json:"disk_over_mem_ratio"`
	} `json:"ingest"`

	Query struct {
		MemNsPerQuery  float64 `json:"mem_ns_per_query"`
		DiskNsPerQuery float64 `json:"disk_ns_per_query"`
		DiskOverMem    float64 `json:"disk_over_mem_ratio"`
	} `json:"query"`

	Recovery struct {
		ReopenMs   float64 `json:"disk_reopen_ms"`
		DiskBytes  int64   `json:"disk_bytes"`
		Segments   int     `json:"segments"`
		Recovered  int     `json:"recovered_entries"`
		Checkpoint bool    `json:"with_checkpoint"`
	} `json:"recovery"`
}

// storeBenchViolation returns the i-th violation of the deterministic
// bench stream: 16 assertions x 8 streams, monotone ingest stamps.
func storeBenchViolation(i int) assertion.Violation {
	return assertion.Violation{
		Assertion:   fmt.Sprintf("assert-%02d", i%16),
		Stream:      fmt.Sprintf("cam-%d", i%8),
		SampleIndex: i,
		Time:        float64(i) * 0.04,
		Severity:    1 + float64(i%5),
		IngestUnix:  1753800000 + int64(i/1000),
	}
}

// driveCollectorIngest ships n violations through Collector.Ingest in
// wire batches and returns the wall time. After every acknowledged batch
// a disk-backed collector has flushed the records to the OS, so the disk
// number buys process-crash (SIGKILL) durability per batch.
func driveCollectorIngest(c *export.Collector, n int) (time.Duration, error) {
	batch := make([]assertion.Violation, 0, ingestBatch)
	var seq uint64
	start := time.Now()
	for i := 0; i < n; {
		batch = batch[:0]
		for len(batch) < ingestBatch && i < n {
			batch = append(batch, storeBenchViolation(i))
			i++
		}
		seq++
		if got, dup := c.Ingest(export.Batch{Source: "bench", Seq: seq, Violations: batch}); dup || got != len(batch) {
			return 0, fmt.Errorf("batch %d: accepted %d of %d (dup=%v)", seq, got, len(batch), dup)
		}
	}
	return time.Since(start), nil
}

// driveStoreIngest appends n violations directly (the query and recovery
// fixtures), with one final Sync for the disk tail.
func driveStoreIngest(s store.ViolationStore, n int) error {
	for i := 0; i < n; i++ {
		if err := s.Append(storeBenchViolation(i)); err != nil {
			return err
		}
	}
	return s.Sync()
}

// storeBenchQuery returns the i-th query of the mixed query workload: by
// assertion, by assertion and stream, and time-windowed, each keeping the
// newest 100.
func storeBenchQuery(i int) store.Query {
	query := store.Query{Assertion: fmt.Sprintf("assert-%02d", i%16), Limit: 100}
	switch i % 3 {
	case 1:
		query.Stream = fmt.Sprintf("cam-%d", i%8)
	case 2:
		query.MinIngestUnix = 1753800000 + int64(i%200)
	}
	return query
}

// driveStoreQueries runs the first q queries of the mixed workload and
// returns the wall time.
func driveStoreQueries(s store.ViolationStore, q int) time.Duration {
	start := time.Now()
	for i := 0; i < q; i++ {
		s.Query(storeBenchQuery(i))
	}
	return time.Since(start)
}

// renderStoreBench races the mem and disk backends on collector ingest
// and store queries, measures cold recovery of the segment files, and
// records the results in outPath (machine-readable; "" skips the file).
// Each backend runs several trials and the best wall time counts — the
// usual guard against scheduler and page-cache noise skewing one run.
func renderStoreBench(quick bool, outPath string) (string, error) {
	// 2M violations: enough that segment rolls, slice growth and page
	// faults all amortise to their steady-state per-record cost (short
	// runs flatter the mem backend, whose growth stalls shrink faster
	// than the disk backend's roll fsyncs).
	n, q, trials := 2_000_000, 200, 2
	if quick {
		n, q, trials = 200_000, 100, 2
	}
	rep := benchStoreReport{Bench: "store", Quick: quick, Violations: n, BatchSize: ingestBatch, Queries: q}

	best := func(cur, wall time.Duration) time.Duration {
		if cur == 0 || wall < cur {
			return wall
		}
		return cur
	}

	// --- Ingest race: identical batch streams through both collectors.
	var memIngest, diskIngest time.Duration
	for t := 0; t < trials; t++ {
		mem, err := export.OpenCollector(export.CollectorConfig{Shards: 1})
		if err != nil {
			return "", err
		}
		wall, err := driveCollectorIngest(mem, n)
		if err != nil {
			mem.Close()
			return "", fmt.Errorf("mem ingest: %w", err)
		}
		if got := mem.TotalFired(); got != n {
			mem.Close()
			return "", fmt.Errorf("mem collector holds %d of %d violations", got, n)
		}
		mem.Close()
		memIngest = best(memIngest, wall)

		dir, err := os.MkdirTemp("", "omg-storebench")
		if err != nil {
			return "", err
		}
		disk, err := export.OpenCollector(export.CollectorConfig{
			Shards: 1, Store: export.StoreDisk, DataDir: dir,
		})
		if err != nil {
			return "", err
		}
		wall, err = driveCollectorIngest(disk, n)
		if err != nil {
			disk.Close()
			return "", fmt.Errorf("disk ingest: %w", err)
		}
		if got := disk.TotalFired(); got != n {
			disk.Close()
			return "", fmt.Errorf("disk collector holds %d of %d violations", got, n)
		}
		if err := disk.Close(); err != nil {
			return "", fmt.Errorf("close disk collector: %w", err)
		}
		// Drop the trial's data right away: unlinking lets the kernel
		// discard its dirty pages instead of writing ~260 MiB back while
		// the next trial is being timed.
		os.RemoveAll(dir)
		diskIngest = best(diskIngest, wall)
	}

	// --- Query race over raw stores holding the identical n violations.
	memStore := store.NewMemStore(0)
	if err := driveStoreIngest(memStore, n); err != nil {
		return "", fmt.Errorf("mem query fixture: %w", err)
	}
	diskDir, err := os.MkdirTemp("", "omg-storebench")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(diskDir)
	diskStore, err := store.Open(store.Config{Dir: diskDir})
	if err != nil {
		return "", err
	}
	if err := driveStoreIngest(diskStore, n); err != nil {
		return "", fmt.Errorf("disk query fixture: %w", err)
	}
	for i := 0; i < q; i++ {
		query := storeBenchQuery(i)
		if mem, disk := memStore.Query(query), diskStore.Query(query); !slices.Equal(mem, disk) {
			return "", fmt.Errorf("query parity broken on %+v: mem and disk answers differ (%d and %d violations)", query, len(mem), len(disk))
		}
	}
	var memQuery, diskQuery time.Duration
	for t := 0; t < trials; t++ {
		memQuery = best(memQuery, driveStoreQueries(memStore, q))
		diskQuery = best(diskQuery, driveStoreQueries(diskStore, q))
	}
	info := diskStore.Info()
	if err := diskStore.Close(); err != nil {
		return "", fmt.Errorf("close segment store: %w", err)
	}

	// --- Cold recovery: reopen the segment directory from scratch.
	reopenStart := time.Now()
	recovered, err := store.Open(store.Config{Dir: diskDir})
	if err != nil {
		return "", fmt.Errorf("reopen segment store: %w", err)
	}
	reopenWall := time.Since(reopenStart)
	if got := recovered.TotalFired(); got != n {
		return "", fmt.Errorf("recovery lost violations: %d of %d", got, n)
	}
	rep.Recovery.Recovered = recovered.Info().Entries
	recovered.Close()

	rep.Ingest.MemNsPerOp = float64(memIngest.Nanoseconds()) / float64(n)
	rep.Ingest.DiskNsPerOp = float64(diskIngest.Nanoseconds()) / float64(n)
	rep.Ingest.MemPerSec = float64(n) / memIngest.Seconds()
	rep.Ingest.DiskPerSec = float64(n) / diskIngest.Seconds()
	rep.Ingest.DiskOverMem = rep.Ingest.DiskNsPerOp / rep.Ingest.MemNsPerOp
	rep.Query.MemNsPerQuery = float64(memQuery.Nanoseconds()) / float64(q)
	rep.Query.DiskNsPerQuery = float64(diskQuery.Nanoseconds()) / float64(q)
	rep.Query.DiskOverMem = rep.Query.DiskNsPerQuery / rep.Query.MemNsPerQuery
	rep.Recovery.ReopenMs = float64(reopenWall.Nanoseconds()) / 1e6
	rep.Recovery.DiskBytes = info.Bytes
	rep.Recovery.Segments = info.Segments
	rep.Recovery.Checkpoint = true // Close checkpointed before the reopen

	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return "", fmt.Errorf("write %s: %w", outPath, err)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Collector ingest, %d violations in %d-violation batches (16 assertions x 8 streams):\n", n, ingestBatch)
	fmt.Fprintf(&b, "  %-22s %12s %16s\n", "backend", "ns/violation", "violations/s")
	fmt.Fprintf(&b, "  %-22s %12.1f %16.0f\n", "mem", rep.Ingest.MemNsPerOp, rep.Ingest.MemPerSec)
	fmt.Fprintf(&b, "  %-22s %12.1f %16.0f\n", "disk (segments)", rep.Ingest.DiskNsPerOp, rep.Ingest.DiskPerSec)
	fmt.Fprintf(&b, "  disk/mem ingest ratio: %.2fx\n\n", rep.Ingest.DiskOverMem)
	fmt.Fprintf(&b, "Store queries, %d mixed (assertion/stream/window, limit 100):\n", q)
	fmt.Fprintf(&b, "  %-22s %12.1f ns/query\n", "mem", rep.Query.MemNsPerQuery)
	fmt.Fprintf(&b, "  %-22s %12.1f ns/query\n", "disk (segments)", rep.Query.DiskNsPerQuery)
	fmt.Fprintf(&b, "  disk/mem query ratio: %.2fx\n\n", rep.Query.DiskOverMem)
	fmt.Fprintf(&b, "Cold recovery: %d violations from %d segments (%.1f MiB) in %.1f ms\n",
		rep.Recovery.Recovered, rep.Recovery.Segments, float64(rep.Recovery.DiskBytes)/(1<<20), rep.Recovery.ReopenMs)
	if outPath != "" {
		fmt.Fprintf(&b, "  results written to %s\n", outPath)
	}
	return b.String(), nil
}
