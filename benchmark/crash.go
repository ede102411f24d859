package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"
)

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// observable is the collector state a crash must not change: the summary
// document and a retained-violation query, byte for byte.
type observable struct{ summary, query []byte }

func observe(h *harness, assertionName string) (observable, error) {
	var o observable
	var err error
	if o.summary, err = getBytes(h.client, h.col.url()+summaryPath); err != nil {
		return o, err
	}
	o.query, err = getBytes(h.client, fmt.Sprintf("%s%s?assertion=%s&limit=1000", h.col.url(), queryPath, assertionName))
	return o, err
}

// runCrashReopen: see the workload table in README.md.
func runCrashReopen(h *harness) error {
	t0 := time.Now()
	spec := collectorSpec{Shards: 2, Store: storeDisk}
	if err := h.startCollector(spec); err != nil {
		return err
	}
	f := newFleet("fl", 8, 64)
	var loaders []*ingestConn
	for i, srcs := range splitSources(f, 2) {
		loaders = append(loaders, newIngestConn(h, codecBinary, srcs, h.cfg.Seed+int64(i)))
	}
	frames := max(h.scaled(1000000, 4096)/frameSize/len(loaders), 1)
	runIngest(loaders, frames, nil)
	var acked int64
	for _, c := range loaders {
		acked += c.acked
	}
	settleIngest(h, acked, f.sources)
	if acked == 0 {
		return fmt.Errorf("nothing was ingested; there is no state to reopen")
	}
	// The reference state is read after the duplicate re-POSTs, whose
	// counter is part of the summary a reopen must reproduce.
	want, err := observe(h, f.assertions[0])
	if err != nil {
		return err
	}
	h.put("setup_s", time.Since(t0).Seconds())

	var reopen, firstRead latencies
	var cpuUs, rssMB []float64
	began := time.Now()
	for i := 0; i < 3 || time.Since(began) < h.seconds(1); i++ {
		h.attempt(1)
		h.col.crash()
		if i == 0 {
			size, err := dirBytes(h.dataDir)
			if err != nil {
				return err
			}
			h.put("client.disk_bytes_per_violation", float64(size)/float64(acked))
			if h.tr != nil {
				if err := crashLayerProbes(h); err != nil {
					return err
				}
			}
		}
		d, err := h.col.restart()
		if err != nil {
			return fmt.Errorf("reopen %d: %w", i+1, err)
		}
		ready := h.col.usage()
		t1 := time.Now()
		got, err := observe(h, f.assertions[0])
		read := time.Since(t1)
		if err != nil {
			h.fail(1, "reopen %d: %v", i+1, err)
			continue
		}
		if !bytes.Equal(got.summary, want.summary) || !bytes.Equal(got.query, want.query) {
			h.fail(1, "reopen %d: state differs after SIGKILL: summary %d->%d bytes (%s), query %d->%d bytes",
				i+1, len(want.summary), len(got.summary), got.summary, len(want.query), len(got.query))
			continue
		}
		answered := h.col.usage()
		if i == 0 {
			h.put("client.reopen_rss_mb", answered.RSSMB)
		}
		reopen.add(d)
		firstRead.add(read)
		cpuUs = append(cpuUs, float64(ready.CPU.Microseconds()))
		rssMB = append(rssMB, answered.RSSMB)
	}
	if len(reopen) == 0 {
		return fmt.Errorf("no reopen reproduced the pre-crash state")
	}
	// Two measurements, two roles: how fast the held state comes back (the
	// collector is away for held ÷ rate), and what the operator's first
	// dashboard load costs once it is back — so recovery work deferred to
	// the first read shows instead of hiding.
	s := summarize(reopen)
	h.res.Timings["throughput_per_s"] = "one reopen: " + s.String()
	h.put("throughput_per_s", float64(acked)/(s.P50/1e3))
	h.put("client.reopen_s", s.P50/1e3)
	h.timing("latency_p50_ms", firstRead)
	h.put("client.server_cpu_us_per_item", median(cpuUs)/float64(acked))
	h.put("server_rss_mb", median(rssMB))
	if h.tr != nil {
		if _, err := traceMetrics(h); err != nil {
			return err
		}
		if m, ok := h.res.Metrics["store.recover_ns_per_record"]; ok && m.Value > 0 {
			// OpenCollector opens its shards one after another, so the
			// whole reopen should be about records x per-record recovery.
			predicted := m.Value * float64(acked) / 1e6
			h.put("trace.reconcile_reopen_pct", 100*predicted/s.P50)
		}
	}
	return nil
}
