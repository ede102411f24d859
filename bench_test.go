package omg_test

// The benchmark suite regenerates every table and figure of the paper at
// reduced ("quick") scale and reports the headline numbers as benchmark
// metrics, plus ablation benches for the design choices and
// micro-benchmarks for the hot paths. cmd/omg-bench runs the same
// experiments at full scale.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"omg"
	"omg/internal/activelearn"
	"omg/internal/assertion"
	"omg/internal/bandit"
	"omg/internal/consistency"
	"omg/internal/domains/nightstreet"
	"omg/internal/experiments"
	"omg/internal/geometry"
	"omg/internal/simrand"
)

// ---------------------------------------------------------------------
// One benchmark per paper table/figure.

func BenchmarkTable1Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1()) != 4 {
			b.Fatal("bad table 1")
		}
	}
}

func BenchmarkTable2LOC(b *testing.B) {
	var maxBody, maxTotal int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(".")
		if err != nil {
			b.Fatal(err)
		}
		maxBody, maxTotal = 0, 0
		for _, r := range rows {
			if r.BodyLOC > maxBody {
				maxBody = r.BodyLOC
			}
			if r.TotalLOC > maxTotal {
				maxTotal = r.TotalLOC
			}
		}
	}
	b.ReportMetric(float64(maxBody), "max-body-loc")
	b.ReportMetric(float64(maxTotal), "max-total-loc")
}

func BenchmarkTable3Precision(b *testing.B) {
	var minPrec float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(experiments.QuickScale())
		minPrec = 1
		for _, r := range rows {
			if r.PrecisionModel < minPrec {
				minPrec = r.PrecisionModel
			}
		}
	}
	b.ReportMetric(100*minPrec, "min-precision-%")
}

func BenchmarkFigure3Confidence(b *testing.B) {
	var topPct float64
	for i := 0; i < b.N; i++ {
		points := experiments.Figure3(experiments.QuickScale())
		topPct = 0
		for _, p := range points {
			if p.Rank == 1 && p.Percentile > topPct {
				topPct = p.Percentile
			}
		}
	}
	b.ReportMetric(topPct, "top-error-percentile")
}

func reportAL(b *testing.B, r experiments.ALResult) {
	b.Helper()
	for _, c := range r.Curves {
		b.ReportMetric(100*c.Final(), c.Strategy+"-final-x100")
	}
	if r.LabelSavingsPct >= 0 {
		b.ReportMetric(r.LabelSavingsPct, "bal-label-savings-%")
	}
}

func BenchmarkFigure4aNightStreet(b *testing.B) {
	var r experiments.ALResult
	for i := 0; i < b.N; i++ {
		r = experiments.Figure4a(experiments.QuickScale())
	}
	reportAL(b, r)
}

func BenchmarkFigure4bNuScenes(b *testing.B) {
	var r experiments.ALResult
	for i := 0; i < b.N; i++ {
		r = experiments.Figure4b(experiments.QuickScale())
	}
	reportAL(b, r)
}

func BenchmarkFigure5ECG(b *testing.B) {
	var r experiments.ALResult
	for i := 0; i < b.N; i++ {
		r = experiments.Figure5(experiments.QuickScale())
	}
	reportAL(b, r)
}

func BenchmarkTable4WeakSupervision(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table4(experiments.QuickScale())
	}
	for _, r := range rows {
		unit := strings.ReplaceAll(strings.ToLower(r.Domain), " ", "-") + "-gain-%"
		b.ReportMetric(r.RelativeGainPct, unit)
	}
}

func BenchmarkTable6HumanLabels(b *testing.B) {
	var r experiments.Table6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table6(experiments.QuickScale())
	}
	b.ReportMetric(100*r.CatchRate(), "catch-rate-%")
	b.ReportMetric(float64(r.Errors), "label-errors")
}

// ---------------------------------------------------------------------
// Ablations: one design choice varied at a time.

// benchBALVariant runs only BAL, with one configuration, on Figure 4a's
// night-street domain and reports the final mAP: the ablation entry point
// for the exploration fraction, fallback threshold and rank-power design
// choices.
func benchBALVariant(b *testing.B, cfg omg.BALConfig) {
	s := experiments.QuickScale()
	var final float64
	for i := 0; i < b.N; i++ {
		d := nightstreet.New(nightstreet.Config{
			Seed:       simrand.DeriveSeed(s.Seed, "video"),
			PoolFrames: s.VideoPoolFrames, TestFrames: s.VideoTestFrames,
		})
		curves := activelearn.RunAll(d, []bandit.Selector{
			bandit.NewBAL(simrand.DeriveSeed(s.Seed, "sel-bal"), cfg),
		}, activelearn.Config{
			Rounds: s.Rounds, Budget: s.VideoBudget, Trials: s.TrialsVideo, Seed: s.Seed,
		})
		for _, c := range curves {
			if c.Strategy == "bal" {
				final = c.Final()
			}
		}
	}
	b.ReportMetric(100*final, "bal-final-x100")
}

func BenchmarkAblationBALDefault(b *testing.B) {
	benchBALVariant(b, omg.BALConfig{})
}

func BenchmarkAblationBALNoExplore(b *testing.B) {
	benchBALVariant(b, omg.BALConfig{NoExplore: true})
}

func BenchmarkAblationBALHighExplore(b *testing.B) {
	benchBALVariant(b, omg.BALConfig{ExploreFraction: 0.5})
}

func BenchmarkAblationBALRankPower2(b *testing.B) {
	benchBALVariant(b, omg.BALConfig{RankPower: 2})
}

func BenchmarkAblationBALStrictFallback(b *testing.B) {
	benchBALVariant(b, omg.BALConfig{FallbackThreshold: 0.2})
}

// ---------------------------------------------------------------------
// Micro-benchmarks for the hot paths.

func BenchmarkIoU(b *testing.B) {
	x := geometry.NewBox2D(0, 0, 100, 100)
	y := geometry.NewBox2D(50, 50, 150, 150)
	for i := 0; i < b.N; i++ {
		_ = x.IoU(y)
	}
}

func BenchmarkMonitorObserve(b *testing.B) {
	reg := omg.NewRegistry()
	reg.MustAdd(omg.NewAssertion("noop", func(w []omg.Sample) float64 { return 0 }))
	reg.MustAdd(omg.NewAssertion("len", func(w []omg.Sample) float64 { return float64(len(w) % 2) }))
	mon := omg.NewMonitor(reg.Suite(), omg.WithWindowSize(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Observe(omg.Sample{Index: i})
	}
}

// BenchmarkMonitorObserveNightStreet is the edge's real per-sample cost:
// the night-street suite (vehicle:flicker, vehicle:appear from the §4
// consistency generator, plus multibox) through a window-8 Monitor, over
// tracked detections of a simulated camera replayed with Index and Time
// counting on, as the benchmark harness's edge_video feed does.
func BenchmarkMonitorObserveNightStreet(b *testing.B) {
	d := nightstreet.New(nightstreet.Config{Seed: 41, PoolFrames: 1000, TestFrames: 1})
	feed := consistency.Samples(d.DetectTracked(d.Pool()))
	dt := feed[1].Time - feed[0].Time
	mon := assertion.NewMonitor(d.Suite(), assertion.WithWindowSize(8),
		assertion.WithRecorder(assertion.NewRecorder(1024)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := feed[i%len(feed)]
		s.Index, s.Time = i, float64(i)*dt
		mon.Observe(s)
	}
}

// benchSuite is the assertion suite shared by the monitor benchmarks.
func benchSuite() *omg.Suite {
	reg := omg.NewRegistry()
	reg.MustAdd(omg.NewAssertion("noop", func(w []omg.Sample) float64 { return 0 }))
	reg.MustAdd(omg.NewAssertion("len", func(w []omg.Sample) float64 { return float64(len(w) % 2) }))
	return reg.Suite()
}

// BenchmarkMonitorPoolObserve measures multi-stream monitoring throughput
// one sample at a time: each goroutine is its own stream and Enqueues onto
// its shard, so shards evaluate concurrently and ns/op should drop as
// GOMAXPROCS grows — compare with the single-mutex BenchmarkMonitorObserve.
// The closing Flush keeps every evaluation inside the timed region.
func BenchmarkMonitorPoolObserve(b *testing.B) {
	pool := omg.NewMonitorPool(benchSuite(), omg.WithPoolWindowSize(8))
	defer pool.Close()
	var stream atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("stream-%d", stream.Add(1))
		i := 0
		for pb.Next() {
			if err := pool.Enqueue(omg.Sample{Stream: key, Index: i}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	if err := pool.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMonitorPoolObserveBatch measures the asynchronous ingestion
// path: batches are enqueued onto the bounded per-shard queues and the
// pool's workers evaluate them off the caller's path.
func BenchmarkMonitorPoolObserveBatch(b *testing.B) {
	pool := omg.NewMonitorPool(benchSuite(), omg.WithPoolWindowSize(8), omg.WithQueueDepth(1024))
	defer pool.Close()
	const streams, batchSize = 8, 256
	keys := make([]string, streams)
	for i := range keys {
		keys[i] = fmt.Sprintf("stream-%d", i)
	}
	batch := make([]omg.Sample, batchSize)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = omg.Sample{Stream: keys[n%streams], Index: n}
			n++
		}
		if err := pool.ObserveBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(batchSize), "samples/op")
}

func BenchmarkBALSelect(b *testing.B) {
	cands := make([]omg.Candidate, 2000)
	rng := simrand.New(2)
	for i := range cands {
		sev := omg.Vector{0, 0, 0}
		if rng.Bool(0.3) {
			sev[rng.Choice(3)] = rng.Float64() * 5
		}
		cands[i] = omg.Candidate{Index: i, Severities: sev, Uncertainty: rng.Float64()}
	}
	state := omg.RoundState{
		Round: 1, Budget: 100, Candidates: cands,
		FiredCounts: bandit.FiredCounts(cands, 3),
	}
	sel := omg.NewBAL(1, omg.BALConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Reset(int64(i))
		_ = sel.Select(state)
	}
}

func BenchmarkCountOverlappingTriples(b *testing.B) {
	rng := simrand.New(3)
	boxes := make([]geometry.Box2D, 30)
	for i := range boxes {
		cx, cy := rng.Uniform(0, 400), rng.Uniform(0, 400)
		boxes[i] = geometry.BoxFromCenter(cx, cy, 100, 80)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = geometry.CountOverlappingTriples(boxes, 0.4)
	}
}
