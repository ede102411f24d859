package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"syscall"
	"time"
)

// series is one end-to-end metric on one workload over a set of runs.
type series struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median, as the driver computes it
}

func newSeries(values []float64) series {
	q1, q2, q3 := quartiles(values)
	return series{Values: values, Median: q2, Q1: q1, Q3: q3, Spread: spread(values)}
}

// runSet is what -repeat writes and -compare reads.
type runSet struct {
	provenance
	Seed    int64                        `json:"seed"`
	Seconds float64                      `json:"seconds"`
	Repeat  int                          `json:"repeat"`
	Summary map[string]map[string]series `json:"summary"` // workload -> metric
}

// runChild runs one workload once in a fresh process of this same binary
// — as the driver does, so no run inherits another's heap — and returns
// the contract line it printed. When ctx is cancelled the child is sent
// SIGTERM, on which it stops its collector and removes its files, and
// runChild returns once it has exited.
func runChild(ctx context.Context, cfg runConfig) (line, error) {
	var out line
	self, err := os.Executable()
	if err != nil {
		return out, err
	}
	cmd := exec.CommandContext(ctx, self, "-workload", cfg.Workload, "-seed", fmt.Sprint(cfg.Seed),
		"-seconds", fmt.Sprint(cfg.Seconds), "-trace", "0")
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 20 * time.Second // the collector's own graceful stop takes up to 10 s
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s seed %d: %w", cfg.Workload, cfg.Seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return out, fmt.Errorf("%s seed %d: result line: %w", cfg.Workload, cfg.Seed, err)
	}
	return out, nil
}

// repeatRuns runs the chosen workloads n times, interleaved so that drift
// on the machine lands on every workload alike, with seeds seed+1..seed+n.
func repeatRuns(ctx context.Context, cfg runConfig, only string, n int, out string) int {
	var names []string
	for _, w := range workloads {
		if only == "" || only == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatal("unknown -workload %q", only)
	}
	values := map[string]map[string][]float64{}
	set := runSet{provenance: readProvenance(), Seed: cfg.Seed, Seconds: cfg.Seconds, Repeat: n}
	code := 0
	for rep := 1; rep <= n; rep++ {
		for _, name := range names {
			c := cfg
			c.Workload, c.Seed = name, cfg.Seed+int64(rep)
			res, err := runChild(ctx, c)
			if ctx.Err() != nil {
				return interrupted
			}
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: run %d/%d %s: correct=%v %v\n", rep, n, name, res.Correct, err)
				code = 1
				continue
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %-16s", rep, n, name)
			for _, d := range endToEnd {
				v := res.Metrics[d.Name].Value
				values[name][d.Name] = append(values[name][d.Name], v)
				fmt.Fprintf(os.Stderr, " %s=%.4g", d.Name, v)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	set.Summary = map[string]map[string]series{}
	fmt.Printf("%-16s %-24s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		set.Summary[name] = map[string]series{}
		for _, d := range endToEnd {
			if len(values[name][d.Name]) == 0 {
				continue
			}
			s := newSeries(values[name][d.Name])
			set.Summary[name][d.Name] = s
			flag := ""
			if s.Spread > d.Bound && d.Name != "setup_s" {
				flag = "  spread exceeds the bound"
			}
			fmt.Printf("%-16s %-24s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				name, d.Name+" ("+d.Unit+")", s.Median, s.Q1, s.Q3, 100*s.Spread, 100*d.Bound, flag)
		}
	}
	if out != "" {
		data, _ := json.MarshalIndent(set, "", "  ")
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fatal("write %s: %v", out, err)
		}
	}
	return code
}

// worseBy is how much worse b's median is than a's, as a share of a's, in
// the metric's own direction (positive = worse).
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(better string, a, b []float64) bool {
	as, bs := sorted(a), sorted(b)
	if len(as) == 0 || len(bs) == 0 {
		return false
	}
	if better == higher {
		return bs[0] > as[len(as)-1]
	}
	return bs[len(bs)-1] < as[0]
}

// verdict applies one metric's bound to a parent series and a change
// series: a regression when the change's median is worse by more than the
// bound; unresolved, not unchanged, when the run-to-run spread is wider
// than the bound — unless every run of the change beats every run of the
// parent.
func verdict(d metricDef, parent, change series) (string, float64) {
	w := worseBy(d.Better, parent.Median, change.Median)
	switch {
	case w > d.Bound:
		return "REGRESSION", w
	case max(parent.Spread, change.Spread) > d.Bound && !allBetter(d.Better, parent.Values, change.Values):
		return "unresolved", w
	}
	return "ok", w
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the exit code: 1 if any metric regressed.
func compareFiles(parentPath, changePath string) int {
	load := func(path string) runSet {
		var s runSet
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &s)
		}
		if err != nil {
			fatal("read %s: %v", path, err)
		}
		return s
	}
	parent, change := load(parentPath), load(changePath)
	fmt.Printf("parent %s (%d runs)  change %s (%d runs)\n", parent.Commit, parent.Repeat, change.Commit, change.Repeat)
	fmt.Printf("%-16s %-24s %12s %12s %9s %6s  %s\n", "workload", "metric", "parent", "change", "worse by", "bound", "verdict")
	names := make([]string, 0, len(parent.Summary))
	for name := range parent.Summary {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	for _, name := range names {
		for _, d := range endToEnd {
			p, okP := parent.Summary[name][d.Name]
			c, okC := change.Summary[name][d.Name]
			if !okP || !okC {
				fmt.Printf("%-16s %-24s missing on one side\n", name, d.Name)
				code = 1
				continue
			}
			v, w := verdict(d, p, c)
			if v == "REGRESSION" {
				code = 1
			}
			fmt.Printf("%-16s %-24s %12.4f %12.4f %+8.1f%% %5.0f%%  %s\n", name, d.Name+" ("+d.Unit+")", p.Median, c.Median, 100*w, 100*d.Bound, v)
		}
	}
	return code
}
