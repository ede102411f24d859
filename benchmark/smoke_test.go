package main

import (
	"context"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload at 1/50 scale against the
// in-process twin: the gates must hold, every end-to-end metric must be
// measured, and the contract line must be complete. It keeps the harness
// compiling against the layers it calls and honest about its own checks.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns collectors and generates video")
	}
	began := time.Now()
	for _, w := range workloads {
		cfg := runConfig{Workload: w.Name, Seed: 7, Seconds: 0.6, Scale: 0.02, InProc: true, TmpRoot: t.TempDir()}
		res, err := runOnce(context.Background(), cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.Name, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		last, err := contractLine(res)
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		for _, d := range endToEnd {
			if m := last.Metrics[d.Name]; !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: %s = %v %q", w.Name, d.Name, m.Value, m.Unit)
			}
		}
	}
	if d := time.Since(began); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke run took %s, want under 15s", d)
	}
}

// TestSmokeTracedRun checks the traced path end to end on the two
// workloads the reconciliation rules are stated for.
func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns collectors")
	}
	for _, name := range []string{"fleet_ingest", "crash_reopen"} {
		dir := t.TempDir()
		cfg := runConfig{Workload: name, Seed: 7, Seconds: 0.6, Scale: 0.02, TmpRoot: dir}
		res, err := runTraced(context.Background(), cfg, dir+"/trace.json")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %v", name, res.Failures)
		}
		last, err := contractLine(res)
		if err != nil {
			t.Fatal(err)
		}
		if len(last.Metrics) != len(perLayer) {
			t.Errorf("%s: traced line has %d metrics, want every one of %d", name, len(last.Metrics), len(perLayer))
		}
		for _, must := range map[string][]string{
			"fleet_ingest": {"export.handle_ms", "export.decode_binary_ns_per_violation", "export.ingest_disk_ns_per_violation",
				"store.append_ns_per_violation", "server.apply_mean_us", "trace.spans", "trace.reconcile_ack_pct"},
			"crash_reopen": {"store.recover_ns_per_record", "store.segments", "trace.reconcile_reopen_pct", "client.disk_bytes_per_violation"},
		}[name] {
			if !(last.Metrics[must].Value > 0) {
				t.Errorf("%s: per-layer metric %s = %v", name, must, last.Metrics[must].Value)
			}
		}
	}
}
