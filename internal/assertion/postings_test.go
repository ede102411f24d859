package assertion

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// timeShapes are the Time-against-arrival orders the zone map has to stay
// exact under: i is the arrival rank, n the log's length.
var timeShapes = []struct {
	name string
	at   func(rng *rand.Rand, i, n int) float64
}{
	{"ascending", func(_ *rand.Rand, i, _ int) float64 { return float64(i / 3) }},
	{"descending", func(_ *rand.Rand, i, n int) float64 { return float64((n - i) / 3) }},
	{"sawtooth", func(_ *rand.Rand, i, _ int) float64 { return float64(i % 700) }},
	{"jittered", func(rng *rand.Rand, i, _ int) float64 { return float64(i) + 300*rng.Float64() }},
	{"4-valued", func(rng *rand.Rand, _, _ int) float64 { return float64(rng.IntN(4)) }},
	{"nan", func(rng *rand.Rand, i, _ int) float64 {
		if rng.IntN(50) == 0 {
			return math.NaN()
		}
		return float64(i / 2)
	}},
}

// zoneless is the indexed log l with its zone map taken away: the same
// rows and postings, walked with no block ever skipped — the one pass
// Query made before the zone map.
func zoneless(l *RowLog) *RowLog {
	c := *l
	c.index.zone = nil
	return &c
}

// flatLog is an indexed flat RowLog of vs, as SegmentStore keeps one.
func flatLog(vs []Violation) *RowLog {
	var l RowLog
	l.Index()
	for i := range vs {
		l.Append(0, l.Intern(vs[i].Assertion), l.Intern(vs[i].Stream), &vs[i])
	}
	return &l
}

// sameViolations compares answers field by field, so that a NaN Time
// equals itself.
func sameViolations(a, b []Violation) bool {
	return slices.EqualFunc(a, b, func(x, y Violation) bool {
		return x.Assertion == y.Assertion && x.Stream == y.Stream && x.SampleIndex == y.SampleIndex &&
			math.Float64bits(x.Time) == math.Float64bits(y.Time) && x.Severity == y.Severity
	})
}

// zoneQueries are the ByKey queries the differential tests ask: every
// filter shape against limits below, around and above a block.
func zoneQueries() []StoreQuery {
	var qs []StoreQuery
	for _, f := range [][2]string{{"", ""}, {"a", ""}, {"", "s1"}, {"b", "s2"}, {"", "s9"}} {
		for _, limit := range []int{1, 7, 100, 255, 256, 700, 1 << 20} {
			qs = append(qs, StoreQuery{Assertion: f[0], Stream: f[1], Limit: limit, ByKey: true})
		}
	}
	return qs
}

// zoneViolation draws the i-th arrival of a log of n under shape.
func zoneViolation(rng *rand.Rand, shape func(*rand.Rand, int, int) float64, i, n int) Violation {
	return Violation{
		Assertion:   []string{"a", "b", "c"}[rng.IntN(3)],
		Stream:      []string{"", "s0", "s1", "s2"}[rng.IntN(4)],
		SampleIndex: rng.IntN(3),
		Time:        shape(rng, i, n),
		Severity:    float64(i),
	}
}

// TestZoneMapMatchesFullWalk is the zone map's differential test: over
// random flat logs and wrapped MemStore rings in every Time shape, a ByKey
// query that may skip blocks answers exactly what the same index answers
// with no zone map to skip by.
func TestZoneMapMatchesFullWalk(t *testing.T) {
	rounds := 50 // 300 flat logs across the six shapes
	if raceEnabled {
		rounds = 5 // the race detector needs the paths, not the volume
	}
	for k, shape := range timeShapes {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, uint64(k)))
			for round := 0; round < rounds; round++ {
				n := 1 + rng.IntN(5000)
				vs := make([]Violation, n)
				for i := range vs {
					vs[i] = zoneViolation(rng, shape.at, i, n)
				}
				l := flatLog(vs)
				for _, q := range zoneQueries() {
					if got, want := l.Query(q), zoneless(l).Query(q); !sameViolations(got, want) {
						t.Fatalf("flat log of %d, %+v:\n got %v\nwant %v", n, q, got, want)
					}
				}
			}

			// A ring wrapped two to three times, its head mid-block, indexed
			// before it wraps so every overwrite raises a bound in place.
			const limit = 3000
			m := NewMemStore(limit)
			m.Query(StoreQuery{Assertion: "a"})
			total := 2*limit + 777 + rng.IntN(limit)
			for i := 0; i < total; i++ {
				m.Append(zoneViolation(rng, shape.at, i, total))
				if i%997 != 0 {
					continue
				}
				for _, q := range zoneQueries() {
					if got, want := m.Query(q), zoneless(&m.log).Query(q); !sameViolations(got, want) {
						t.Fatalf("ring at %d appended (head %d), %+v:\n got %v\nwant %v", i+1, m.log.head, q, got, want)
					}
				}
			}
			if _, _, bad := m.IndexSize(); bad != 0 {
				t.Fatalf("the wrapped ring's zone map breaks its invariant %d times", bad)
			}
		})
	}
}

// TestZoneMapWorkGate bounds what a sharded newest-100 query reads over
// 100K arrival-ordered violations, on a flat log and on a wrapped ring,
// filtered and not: the candidates of the block the heap fills in, of at
// most one more block (a Time tie across its edge, or the block a ring's
// head splits), and one zone bound per block. A Time-descending log lets
// no block be skipped and must still answer right.
func TestZoneMapWorkGate(t *testing.T) {
	const retained, limit = 100_000, 100
	blocks := (retained + zoneBlock - 1) / zoneBlock
	assertions := []string{"a", "b", "c", "d"}
	arrival := func(i int) Violation {
		return Violation{Assertion: assertions[i%4], Stream: fmt.Sprintf("s%d", i%7), SampleIndex: i, Time: float64(i/3) / 10}
	}

	flat := make([]Violation, retained)
	for i := range flat {
		flat[i] = arrival(i)
	}
	ring := NewMemStore(retained)
	ring.Query(StoreQuery{Limit: 1, ByKey: true}) // a sharded newest query indexes the ring
	for i := 0; i < retained*13/10; i++ {
		ring.Append(arrival(i))
	}
	if ring.log.head%zoneBlock == 0 {
		t.Fatalf("the ring's head %d is not mid-block", ring.log.head)
	}

	for _, tc := range []struct {
		name      string
		l         *RowLog
		maxBounds int // the block a ring's head splits is read from both sides
	}{
		{"flat", flatLog(flat), blocks},
		{"ring", &ring.log, blocks + 1},
	} {
		for _, q := range []StoreQuery{{}, {Assertion: "c"}, {Stream: "s3"}, {Assertion: "b", Stream: "s5"}} {
			q.Limit, q.ByKey = limit, true
			var work queryWork
			got := tc.l.query(q, &work)
			if want := zoneless(tc.l).Query(q); !sameViolations(got, want) || len(got) != limit {
				t.Fatalf("%s %+v: %d violations, differ from the full walk's %d", tc.name, q, len(got), len(want))
			}
			t.Logf("%s %+v: %d candidates, %d bounds", tc.name, q, work.candidates, work.bounds)
			if work.candidates > limit+2*zoneBlock || work.bounds > tc.maxBounds {
				t.Fatalf("%s %+v: examined %d candidates and %d bounds, want at most %d and %d",
					tc.name, q, work.candidates, work.bounds, limit+2*zoneBlock, tc.maxBounds)
			}
		}
	}

	// Time against arrival: no bound is below the heap's minimum, so the
	// walk reads everything — and still answers what the full walk does.
	desc := make([]Violation, retained)
	for i := range desc {
		desc[i] = arrival(retained - 1 - i)
	}
	descLog := flatLog(desc)
	q := StoreQuery{Limit: limit, ByKey: true}
	var work queryWork
	got := descLog.query(q, &work)
	if want := zoneless(descLog).Query(q); !sameViolations(got, want) || len(got) != limit {
		t.Fatalf("descending: %d violations, differ from the full walk's %d", len(got), len(want))
	}
	if got[0].SampleIndex != retained-limit || got[limit-1].SampleIndex != retained-1 {
		t.Fatalf("descending: answer spans SampleIndex %d..%d, want %d..%d",
			got[0].SampleIndex, got[limit-1].SampleIndex, retained-limit, retained-1)
	}
	if work.candidates != retained {
		t.Fatalf("descending: examined %d candidates, want all %d", work.candidates, retained)
	}
}

// TestZoneMapNaNTime holds a MemStore's answer exact when a NaN Time sits
// among arrival-ordered ones: its block's bound turns NaN and is never
// skipped, and a NaN heap minimum skips nothing.
func TestZoneMapNaNTime(t *testing.T) {
	const retained = 20 * zoneBlock
	for _, at := range []int{0, 5 * zoneBlock, 5*zoneBlock + 17, retained - 120, retained - 1} {
		m := NewMemStore(0)
		m.Query(StoreQuery{Stream: "s"})
		for i := 0; i < retained; i++ {
			v := Violation{Assertion: "a", Stream: "s", SampleIndex: i, Time: float64(i)}
			if i == at {
				v.Time = math.NaN()
			}
			m.Append(v)
		}
		if _, _, bad := m.IndexSize(); bad != 0 {
			t.Fatalf("NaN at %d: the zone map breaks its invariant %d times", at, bad)
		}
		if zone := m.log.index.zone; !math.IsNaN(zone[at/zoneBlock]) {
			t.Fatalf("NaN at %d: block %d's bound is %v, want NaN", at, at/zoneBlock, zone[at/zoneBlock])
		}
		for _, q := range []StoreQuery{{Limit: 100, ByKey: true}, {Stream: "s", Limit: 100, ByKey: true}, {Limit: 3, ByKey: true}} {
			if got, want := m.Query(q), zoneless(&m.log).Query(q); !sameViolations(got, want) {
				t.Fatalf("NaN at %d, %+v:\n got %v\nwant %v", at, q, got, want)
			}
		}
	}
}

// TestMemIndexNameTableBound churns stream keys through a MemStore ring,
// indexed and not (every edge Recorder's): a name leaves the table with
// the last retained row naming it and its id is reused, so the table holds
// the ring's distinct names, "" aside, and never grows past them however
// many keys have come and gone.
func TestMemIndexNameTableBound(t *testing.T) {
	const limit = 500
	for _, indexed := range []bool{false, true} {
		m := NewMemStore(limit)
		if indexed {
			m.Query(StoreQuery{Assertion: "a"})
		}
		for i := 0; i < 40*limit; i++ {
			m.Append(Violation{Assertion: fmt.Sprintf("a%d", i%3), Stream: fmt.Sprintf("cam-%d", i/50), SampleIndex: i})
			if i%97 != 0 {
				continue
			}
			want := map[string]bool{}
			for _, v := range m.Query(StoreQuery{}) {
				want[v.Assertion], want[v.Stream] = true, true
			}
			live := map[string]bool{}
			for id, name := range m.log.names {
				if id != 0 && !slices.Contains(m.log.free, uint32(id)) {
					live[name] = true
				}
			}
			if !maps.Equal(live, want) || len(m.log.names) > len(want)+2 {
				t.Fatalf("indexed %v: after %d appends the table holds %v (%d slots), the ring %v", indexed, i+1, live, len(m.log.names), want)
			}
		}
		if m.log.indexed != indexed {
			t.Fatalf("indexed %v: the ring's index was built %v", indexed, m.log.indexed)
		}
	}
}
