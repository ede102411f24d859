// Command omg-bench regenerates every table and figure of the paper's
// evaluation at full scale and prints them in the paper's row/series
// format. System performance is measured elsewhere, by one harness:
// `bash benchmark/run.sh` and the Benchmark* functions.
//
// Usage:
//
//	omg-bench                 # run everything
//	omg-bench -only table4    # one experiment: table1..4, table6,
//	                          # figure3, figure4a, figure4b, figure5
//	omg-bench -quick          # reduced sizes (seconds, not minutes)
//	omg-bench -root DIR       # repository root for Table 2 (default .)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"omg/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment (table1..table4, table6, figure3, figure4a, figure4b, figure5)")
	quick := flag.Bool("quick", false, "use reduced experiment sizes")
	root := flag.String("root", ".", "repository root (for Table 2 LOC measurement)")
	flag.Parse()

	scale := experiments.FullScale()
	if *quick {
		scale = experiments.QuickScale()
	}

	runs := []struct {
		name string
		run  func() (string, error)
	}{
		{"table1", func() (string, error) { return experiments.RenderTable1(), nil }},
		{"table2", func() (string, error) { return experiments.RenderTable2(*root) }},
		{"table3", func() (string, error) { return experiments.RenderTable3(scale), nil }},
		{"figure3", func() (string, error) { return experiments.RenderFigure3(scale), nil }},
		{"figure4a", func() (string, error) {
			return experiments.RenderAL("Figure 4a/9a: active learning, night-street (mAP x100)", experiments.Figure4a(scale), true), nil
		}},
		{"figure4b", func() (string, error) {
			return experiments.RenderAL("Figure 4b/9b: active learning, NuScenes-style AV (mAP x100)", experiments.Figure4b(scale), true), nil
		}},
		{"figure5", func() (string, error) {
			return experiments.RenderAL("Figure 5: active learning, ECG (accuracy x100)", experiments.Figure5(scale), true), nil
		}},
		{"table4", func() (string, error) { return experiments.RenderTable4(scale), nil }},
		{"table6", func() (string, error) { return experiments.RenderTable6(scale), nil }},
	}

	matched := false
	for _, r := range runs {
		if *only != "" && !strings.EqualFold(*only, r.name) {
			continue
		}
		matched = true
		start := time.Now()
		out, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (scale: %s, %.1fs) ===\n%s\n", r.name, scale.Name, time.Since(start).Seconds(), out)
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}
}
