package consistency

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"omg/internal/assertion"
)

// obj is an output whose Id and Attrs return stored values, so neither
// allocates; its attribute map may lack any key.
type obj struct {
	id    string
	attrs map[string]string
}

func objConfig(t float64) Config[obj] {
	return Config[obj]{
		Name:     "obj",
		Id:       func(o obj) string { return o.id },
		Attrs:    func(o obj) map[string]string { return o.attrs },
		AttrKeys: []string{"color", "size"},
		T:        t,
	}
}

// objT is the oracle streams' threshold. Their time steps put gaps below,
// at (4 × 0.25) and above it.
const objT = 1.0

// randomStream is a seeded stream with empty samples, identifiers
// repeated within one sample, attribute maps missing keys (or nil), and
// presence flickering often enough that every generated kind fires.
func randomStream(r *rand.Rand, n int) []TimedOutputs[obj] {
	ids := []string{"a", "b", "c", "d", "e"}
	maps := []map[string]string{
		nil,
		{},
		{"color": "red"},
		{"color": "blue"},
		{"size": "s"},
		{"color": "red", "size": "s"},
		{"color": "red", "size": "l"},
		{"color": "blue", "size": "l"},
	}
	steps := []float64{0.1, 0.25, 0.25, 0.5, 1.5}
	out := make([]TimedOutputs[obj], n)
	now := 0.0
	for i := range out {
		now += steps[r.Intn(len(steps))]
		out[i] = TimedOutputs[obj]{Index: i, Time: now}
		if r.Intn(8) == 0 {
			continue // empty sample
		}
		for _, id := range ids {
			if r.Intn(5) < 3 {
				out[i].Outputs = append(out[i].Outputs, obj{id: id, attrs: maps[r.Intn(len(maps))]})
			}
		}
		if k := len(out[i].Outputs); k > 0 && r.Intn(6) == 0 {
			dup := out[i].Outputs[r.Intn(k)]
			out[i].Outputs = append(out[i].Outputs, obj{id: dup.id, attrs: maps[r.Intn(len(maps))]})
		}
	}
	return out
}

// referenceCount is a generated assertion's severity on a window, derived
// from the full-stream functions: its flicker or appear events, or its
// key's majority-correction proposals.
func referenceCount(g *Generator[obj], name string, win []TimedOutputs[obj]) float64 {
	switch {
	case strings.HasSuffix(name, ":flicker"):
		return float64(len(g.flickerEvents(win)))
	case strings.HasSuffix(name, ":appear"):
		return float64(len(g.appearEvents(win)))
	}
	key := name[strings.LastIndex(name, ":")+1:]
	n := 0
	for _, p := range g.attrProposals(win) {
		if p.Key == key {
			n++
		}
	}
	return float64(n)
}

// oracleCase is one stream of the differential test with a window reset
// at resetAt (none when resetAt is len(samples)), and the reference
// severity vector of every sample.
type oracleCase struct {
	stream  []TimedOutputs[obj]
	samples []assertion.Sample
	resetAt int
	want    [][]float64
}

func newOracleCase(g *Generator[obj], names []string, r *rand.Rand, window, n, resetAt int) oracleCase {
	c := oracleCase{stream: randomStream(r, n), resetAt: resetAt}
	c.samples = Samples(c.stream)
	for i := range c.samples {
		if len(c.stream[i].Outputs) == 0 && i%5 == 0 {
			c.samples[i].Output = "not-an-output-slice" // decodes as empty
		}
	}
	c.want = c.reference(g, names, window)
	return c
}

// reference is the severity vector of every sample under c.resetAt.
func (c oracleCase) reference(g *Generator[obj], names []string, window int) [][]float64 {
	var want [][]float64
	for i := range c.samples {
		win := c.stream[c.oldest(i, window) : i+1]
		row := make([]float64, len(names))
		for j, name := range names {
			row[j] = referenceCount(g, name, win)
		}
		want = append(want, row)
	}
	return want
}

// withoutReset is the same stream with nothing resetting its window.
func (c oracleCase) withoutReset(g *Generator[obj], names []string, window int) oracleCase {
	c.resetAt = len(c.samples)
	c.want = c.reference(g, names, window)
	return c
}

// oldest is the position of the oldest sample a monitor of the given
// size holds after observing sample i.
func (c oracleCase) oldest(i, size int) int {
	if i >= c.resetAt {
		return max(c.resetAt, i-size+1)
	}
	return max(0, i-size+1)
}

// TestStateMatchesWindowReference is the differential oracle for the
// incremental evaluation: through a Monitor, across a mid-stream Reset,
// each generated assertion's severity equals the full-stream reference
// count over the same window, as does the stateless Check; through
// MonitorPool.Enqueue and MonitorPool.ObserveBatch, the recorded
// violations are the reference's positive severities. All across window
// sizes.
func TestStateMatchesWindowReference(t *testing.T) {
	g := MustNew(objConfig(objT))
	suite := assertion.NewSuite(g.Assertions()...)
	names := suite.Names()
	if len(names) != 4 {
		t.Fatalf("generated %v, want two attribute checks, flicker and appear", names)
	}
	fired := make([]int, len(names))
	for _, size := range []int{1, 2, 3, 8, 16, 100} {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed*1000 + int64(size)))
			// The Monitor leg resets cases[0] at resetAt; the pool legs
			// run both streams without a reset.
			resetAt := 80 + r.Intn(80)
			cases := []oracleCase{
				newOracleCase(g, names, r, size, 240, resetAt),
				newOracleCase(g, names, r, size, 240, resetAt),
			}
			ctx := fmt.Sprintf("window %d seed %d", size, seed)

			// Monitor, with the stateless Check on the same windows.
			c := cases[0]
			m := assertion.NewMonitor(suite, assertion.WithWindowSize(size))
			for i, s := range c.samples {
				if i == c.resetAt {
					m.Reset()
				}
				vec := m.Observe(s)
				for j, a := range suite.Assertions() {
					if vec[j] != c.want[i][j] {
						t.Fatalf("%s: Monitor %s at sample %d = %v, reference %v", ctx, names[j], i, vec[j], c.want[i][j])
					}
					if got := a.Check(c.samples[c.oldest(i, size) : i+1]); got != c.want[i][j] {
						t.Fatalf("%s: stateless %s at sample %d = %v, reference %v", ctx, names[j], i, got, c.want[i][j])
					}
					if c.want[i][j] > 0 {
						fired[j]++
					}
				}
			}

			// The pool legs: two interleaved streams, no reset.
			streams := []oracleCase{
				cases[0].withoutReset(g, names, size),
				cases[1].withoutReset(g, names, size),
			}
			var want []string
			for k, oc := range streams {
				for i, row := range oc.want {
					for j, sev := range row {
						if sev > 0 {
							want = append(want, fmt.Sprintf("s%d/%d/%s/%v", k, i, names[j], sev))
						}
					}
				}
			}
			sort.Strings(want)
			checkRecorded := func(leg string, pool *assertion.MonitorPool) {
				t.Helper()
				if err := pool.Flush(); err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, v := range pool.Violations() {
					got = append(got, fmt.Sprintf("%s/%d/%s/%v", v.Stream, v.SampleIndex, v.Assertion, v.Severity))
				}
				pool.Close()
				sort.Strings(got)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s: %s recorded %d violations, reference %d", ctx, leg, len(got), len(want))
				}
			}

			// MonitorPool.Enqueue, one sample at a time.
			pool := assertion.NewMonitorPool(suite, assertion.WithPoolWindowSize(size), assertion.WithShards(2))
			for i := range c.samples {
				for k, oc := range streams {
					s := oc.samples[i]
					s.Stream = fmt.Sprintf("s%d", k)
					if err := pool.Enqueue(s); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkRecorded("Enqueue", pool)

			// MonitorPool.ObserveBatch, in batches of random length.
			pool = assertion.NewMonitorPool(suite, assertion.WithPoolWindowSize(size), assertion.WithShards(2))
			var batch []assertion.Sample
			flush := func() {
				if err := pool.ObserveBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
			for i := range c.samples {
				for k, oc := range streams {
					s := oc.samples[i]
					s.Stream = fmt.Sprintf("s%d", k)
					batch = append(batch, s)
				}
				if r.Intn(7) == 0 {
					flush()
				}
			}
			flush()
			checkRecorded("ObserveBatch", pool)
		}
	}
	for j, n := range fired {
		if n == 0 {
			t.Errorf("%s never fired: the oracle streams do not exercise it", names[j])
		}
	}
}

// TestNewRejectsDeadAssertions covers configurations that used to pass
// validation and generate assertions that can never fire.
func TestNewRejectsDeadAssertions(t *testing.T) {
	id := func(obj) string { return "" }
	for _, tc := range []struct {
		name string
		cfg  Config[obj]
		ok   bool
	}{
		{"NaN T", Config[obj]{Name: "x", Id: id, T: math.NaN()}, false},
		{"negative T", Config[obj]{Name: "x", Id: id, T: -1}, false},
		{"-Inf T", Config[obj]{Name: "x", Id: id, T: math.Inf(-1)}, false},
		{"unknown kind", Config[obj]{Name: "x", Id: id, T: 1, Temporal: []TemporalKind{"flick"}}, false},
		{"unknown kind beside a known one", Config[obj]{Name: "x", Id: id, T: 1, Temporal: []TemporalKind{Flicker, "appears"}}, false},
		{"unknown kind with T = 0", Config[obj]{Name: "x", Id: id, Temporal: []TemporalKind{"flick"}}, false},
		{"attr is not a temporal kind", Config[obj]{Name: "x", Id: id, T: 1, Temporal: []TemporalKind{attrKind}}, false},
		{"zero T", Config[obj]{Name: "x", Id: id}, true},
		{"+Inf T", Config[obj]{Name: "x", Id: id, T: math.Inf(1)}, true},
		{"both kinds", Config[obj]{Name: "x", Id: id, T: 1, Temporal: []TemporalKind{Flicker, Appear}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if (err == nil) != tc.ok {
				t.Fatalf("New error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestAllocRegressionConsistencySuite pins the incremental evaluation's
// budget: with Id and Attrs that do not allocate, a Monitor running
// attribute, flicker and appear assertions over a steady stream where
// nothing fires allocates nothing per sample.
func TestAllocRegressionConsistencySuite(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	g := MustNew(objConfig(objT))
	m := assertion.NewMonitor(assertion.NewSuite(g.Assertions()...), assertion.WithWindowSize(8))
	outs := []obj{
		{id: "a", attrs: map[string]string{"color": "red", "size": "s"}},
		{id: "b", attrs: map[string]string{"color": "blue"}},
		{id: "c"},
	}
	samples := make([]assertion.Sample, 2048)
	for i := range samples {
		samples[i] = assertion.Sample{Index: i, Time: 0.1 * float64(i), Output: outs}
	}
	for _, s := range samples[:64] { // fill the window past wrap-around
		m.Observe(s)
	}
	i := 64
	allocs := testing.AllocsPerRun(1000, func() {
		if m.Observe(samples[i]).Fired() {
			t.Fatal("steady stream fired")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Monitor.Observe over the consistency suite allocated %.1f times per sample, want 0", allocs)
	}
}

// TestStateDecodesEachSampleOnce holds the incremental evaluation to its
// point: through a Monitor, Id runs once per output per generated
// assertion and Attrs once per output per attribute assertion, however
// many window positions the sample passes through.
func TestStateDecodesEachSampleOnce(t *testing.T) {
	var ids, attrs int
	cfg := objConfig(objT)
	cfg.Id = func(o obj) string { ids++; return o.id }
	cfg.Attrs = func(o obj) map[string]string { attrs++; return o.attrs }
	g := MustNew(cfg)
	m := assertion.NewMonitor(assertion.NewSuite(g.Assertions()...), assertion.WithWindowSize(8))
	outputs := 0
	for _, s := range Samples(randomStream(rand.New(rand.NewSource(7)), 100)) {
		m.Observe(s)
		outputs += len(s.Output.([]obj))
	}
	if want := 4 * outputs; ids != want {
		t.Errorf("Id ran %d times for %d outputs, want %d", ids, outputs, want)
	}
	if want := 2 * outputs; attrs != want {
		t.Errorf("Attrs ran %d times for %d outputs, want %d", attrs, outputs, want)
	}
}
