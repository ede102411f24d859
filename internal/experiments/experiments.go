// Package experiments contains one runner per table and figure of the
// paper's evaluation (§5 and appendices). Each runner returns a
// structured result and can render itself in the paper's row/series
// format; cmd/omg-bench regenerates everything at full scale and
// bench_test.go exposes each runner as a benchmark.
//
// Absolute numbers are not expected to match the paper (the substrate is
// a simulator standing in for models and data that are not reproducible
// offline); the reproduced comparisons are relative:
// which method wins, by roughly what factor, and where crossovers fall.
package experiments

import (
	"fmt"
	"strings"
)

// Scale selects experiment sizes.
type Scale struct {
	// Name tags output ("full", "quick").
	Name string
	// VideoPoolFrames / VideoTestFrames size the night-street domain.
	VideoPoolFrames, VideoTestFrames int
	// AVPoolScenes / AVTestScenes size the NuScenes-style domain.
	AVPoolScenes, AVTestScenes int
	// ECGPoolRecords / ECGTestRecords size the CINC17-style domain.
	ECGPoolRecords, ECGTestRecords int
	// Rounds and Budget for active learning.
	Rounds, VideoBudget, AVBudget, ECGBudget int
	// TrialsVideo/TrialsAV/TrialsECG: paper uses 2 / 8 / 8.
	TrialsVideo, TrialsAV, TrialsECG int
	// NewsHours sizes the TV-news archive.
	NewsHours float64
	// LabelFramePool and LabelSample size the Appendix E experiment.
	LabelFramePool, LabelSample int
	// WeakVideoFrames / WeakVideoFlicker / WeakAVScenes / WeakECGRecords
	// size the weak-supervision runs (paper: 1000/750, 175 scenes, 1000
	// records).
	WeakVideoFrames, WeakVideoFlicker, WeakAVScenes, WeakECGRecords int
	// Seed for everything.
	Seed int64
}

// FullScale mirrors the paper's experiment sizes (scaled to what the
// synthetic substrate supports on a laptop).
func FullScale() Scale {
	return Scale{
		Name:            "full",
		VideoPoolFrames: 3000, VideoTestFrames: 800,
		AVPoolScenes: 175, AVTestScenes: 75,
		ECGPoolRecords: 2000, ECGTestRecords: 800,
		Rounds: 5, VideoBudget: 100, AVBudget: 15, ECGBudget: 100,
		TrialsVideo: 2, TrialsAV: 4, TrialsECG: 8,
		NewsHours:      4,
		LabelFramePool: 30000, LabelSample: 1000,
		WeakVideoFrames: 1000, WeakVideoFlicker: 750,
		WeakAVScenes: 175, WeakECGRecords: 1000,
		Seed: 20200303,
	}
}

// QuickScale is a reduced configuration for tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		Name:            "quick",
		VideoPoolFrames: 600, VideoTestFrames: 200,
		AVPoolScenes: 40, AVTestScenes: 15,
		ECGPoolRecords: 400, ECGTestRecords: 200,
		Rounds: 3, VideoBudget: 40, AVBudget: 6, ECGBudget: 40,
		TrialsVideo: 1, TrialsAV: 1, TrialsECG: 2,
		NewsHours:      0.5,
		LabelFramePool: 4000, LabelSample: 300,
		WeakVideoFrames: 250, WeakVideoFlicker: 180,
		WeakAVScenes: 40, WeakECGRecords: 250,
		Seed: 20200303,
	}
}

// table renders an aligned text table.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
