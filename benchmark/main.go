// Command benchmark is the one benchmark of this repository: it builds and
// spawns the real omg-server, drives it and the edge library from one
// load-generator process, checks every output and prints every metric by
// name and unit. README.md in this directory has the workloads, the metrics
// and how to read a trace; BENCHMARK.json at the repository root is the
// contract.
//
//	bash benchmark/run.sh --workload fleet_ingest --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload fleet_ingest --seed 1 --seconds 12 --trace 1
//	bash benchmark/run.sh --repeat 5 --out runs.json
//	bash benchmark/run.sh --compare parent.json change.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// provenance says what produced a set of numbers.
type provenance struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // the harness's; the collector's is in the result
}

func readProvenance() provenance {
	p := provenance{Commit: "unknown", Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	// The driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	return p
}

// line is the last line of standard output: the contract's result object.
type line struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// contractLine keeps exactly the metrics the contract asks for: every
// end-to-end metric untraced, every per-layer metric traced (0 where the
// workload does not exercise the layer).
func contractLine(r *result) (line, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	out := line{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]measured{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			if !r.Traced {
				return out, fmt.Errorf("workload %s did not measure %s", r.Workload, d.Name)
			}
			m = measured{Value: 0, Unit: d.Unit}
		}
		out.Metrics[d.Name] = m
	}
	return out, nil
}

// interrupted is the exit code after SIGINT or SIGTERM.
const interrupted = 130

func main() {
	workloadName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", runSeconds, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run: in-process twin, spans in trace.json, per-layer metrics")
	out := flag.String("out", "", "also write the full result (every metric, provenance) to this JSON file")
	repeat := flag.Int("repeat", 0, "run every workload (or -workload) N times, interleaved, and print median, quartiles and spread per metric")
	compare := flag.Bool("compare", false, "compare two -repeat files: -compare parent.json change.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare parent.json change.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}

	// SIGINT/SIGTERM must not orphan a collector or leave data directories:
	// runOnce and repeatRuns watch ctx and clean up before exiting.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	cfg := runConfig{Seed: *seed, Seconds: *seconds, Scale: 1, TmpRoot: os.TempDir()}
	if *repeat > 0 {
		os.Exit(repeatRuns(ctx, cfg, *workloadName, *repeat, *out))
	}
	cfg.Workload = *workloadName
	if _, ok := findWorkload(cfg.Workload); !ok {
		fatal("unknown -workload %q; the workloads are %s", cfg.Workload, strings.Join(workloadNames(), ", "))
	}

	var res *result
	var err error
	if *trace != 0 {
		res, err = runTraced(ctx, cfg, "trace.json")
	} else {
		res, err = runOnce(ctx, cfg, nil)
	}
	if err != nil {
		fatal("%v", err)
	}
	res.report(os.Stdout)
	if *out != "" {
		doc := struct {
			provenance
			*result
		}{readProvenance(), res}
		data, _ := json.MarshalIndent(doc, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal("write %s: %v", *out, err)
		}
	}
	last, err := contractLine(res)
	if err != nil {
		fatal("%v", err)
	}
	if !res.Correct {
		// A run that failed a correctness gate prints no result line: its
		// numbers must not be mistaken for measurements.
		fatal("workload %s failed its correctness gates (%d of %d operations failed)", res.Workload, res.Failed, res.Attempted)
	}
	data, err := json.Marshal(last)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(data))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
