package assertion

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestShardForMatchesFNV1a(t *testing.T) {
	for _, key := range []string{"", "cam-0", "edge-07", "日本語", "a\x00b"} {
		for _, n := range []int{0, 1, 2, 7, 16} {
			got := ShardFor(key, n)
			if n <= 1 {
				if got != 0 {
					t.Fatalf("ShardFor(%q, %d) = %d, want 0", key, n, got)
				}
				continue
			}
			h := fnv.New32a()
			h.Write([]byte(key))
			if want := int(h.Sum32() % uint32(n)); got != want {
				t.Fatalf("ShardFor(%q, %d) = %d, want %d", key, n, got, want)
			}
		}
	}
}

func TestMergeStats(t *testing.T) {
	a := Stats{Fired: 2, TotalSev: 3, MaxSev: 2, FirstSample: 5, LastSample: 9}
	b := Stats{Fired: 1, TotalSev: -4, MaxSev: 4, FirstSample: 1, LastSample: 7}
	got := MergeStats(a, b)
	want := Stats{Fired: 3, TotalSev: -1, MaxSev: 4, FirstSample: 1, LastSample: 9}
	if got != want {
		t.Fatalf("MergeStats = %+v, want %+v", got, want)
	}
	// Merging is symmetric for these fields.
	if again := MergeStats(b, a); again != want {
		t.Fatalf("MergeStats reversed = %+v, want %+v", again, want)
	}
}

func TestSortViolationsOrder(t *testing.T) {
	vs := []Violation{
		{Assertion: "a", Stream: "s2", SampleIndex: 1, Time: 2},
		{Assertion: "a", Stream: "s1", SampleIndex: 9, Time: 1},
		{Assertion: "a", Stream: "s1", SampleIndex: 3, Time: 2},
		{Assertion: "a", Stream: "s1", SampleIndex: 2, Time: 2},
	}
	SortViolations(vs)
	wantIdx := []int{9, 2, 3, 1} // time asc, then stream, then sample index
	for i, v := range vs {
		if v.SampleIndex != wantIdx[i] {
			t.Fatalf("position %d: sample %d, want %d (order %+v)", i, v.SampleIndex, wantIdx[i], vs)
		}
	}
}

// TestMergeNewestMatchesSortedConcatenation holds MergeNewest to what it
// replaces: concatenate the answers, SortViolations, keep the last limit.
// Keys come from a few values, so most tie across answers, and Severity
// tells tied violations apart: a tie must go to the later answer.
func TestMergeNewestMatchesSortedConcatenation(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 50))
	for round := 0; round < 300; round++ {
		parts := make([][]Violation, 1+rng.IntN(4))
		var all []Violation
		for i := range parts {
			for j := rng.IntN(12); j > 0; j-- {
				parts[i] = append(parts[i], Violation{
					Stream: []string{"s0", "s1"}[rng.IntN(2)], SampleIndex: rng.IntN(2),
					Time: float64(rng.IntN(3)), Severity: rng.Float64(),
				})
			}
			SortViolations(parts[i])
			all = append(all, parts[i]...)
		}
		SortViolations(all)
		for _, limit := range []int{0, 1, 3, len(all), len(all) + 2} {
			want := all[len(all)-min(len(all), limit):]
			if limit == 0 {
				want = all
			}
			got := MergeNewest(slices.Clone(parts), limit)
			if !slices.Equal(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("round %d, limit %d:\n got %v\nwant %v", round, limit, got, want)
			}
		}
	}
}

func TestMergeRecorderSnapshots(t *testing.T) {
	a := RecorderSnapshot{
		Stats:      map[string]Stats{"x": {Fired: 2, TotalSev: 2, MaxSev: 1, FirstSample: 3, LastSample: 8}},
		Violations: []Violation{{Assertion: "x", Stream: "s1", Time: 2, SampleIndex: 8}},
		LogDropped: 1,
		Compacted:  2,
	}
	b := RecorderSnapshot{
		Stats: map[string]Stats{
			"x": {Fired: 1, TotalSev: 5, MaxSev: 5, FirstSample: 1, LastSample: 4},
			"y": {Fired: 1, TotalSev: 1, MaxSev: 1, FirstSample: 2, LastSample: 2},
		},
		Violations: []Violation{{Assertion: "y", Stream: "s0", Time: 1, SampleIndex: 2}},
		LogDropped: 2,
	}
	m := MergeRecorderSnapshots(a, b)
	if len(m.Stats) != 2 || m.Stats["y"] != b.Stats["y"] {
		t.Fatalf("merged stats = %+v, want x and y with y unchanged", m.Stats)
	}
	wantX := Stats{Fired: 3, TotalSev: 7, MaxSev: 5, FirstSample: 1, LastSample: 8}
	if m.Stats["x"] != wantX {
		t.Fatalf("merged stats x = %+v, want %+v", m.Stats["x"], wantX)
	}
	if m.LogDropped != 3 || m.Compacted != 2 {
		t.Fatalf("merged counters dropped=%d compacted=%d, want 3 and 2", m.LogDropped, m.Compacted)
	}
	if len(m.Violations) != 2 || m.Violations[0].Assertion != "y" {
		t.Fatalf("merged violations out of order: %+v", m.Violations)
	}
}

func TestStatsMaxSevSeverityRanges(t *testing.T) {
	// An assertion whose severities are all negative must report its true
	// (negative) maximum, not the +0.0 a zero-value seed would absorb it
	// into; an all-zero assertion reports 0; mixed reports the max.
	cases := []struct {
		name       string
		severities []float64
		wantMax    float64
	}{
		{"all-negative", []float64{-3, -1.5, -7}, -1.5},
		{"all-zero", []float64{0, 0}, 0},
		{"all-positive", []float64{1, 4, 2}, 4},
		{"mixed", []float64{-2, 0, 3, -9}, 3},
		{"single-negative", []float64{-0.25}, -0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewMemStore(0)
			for i, sev := range tc.severities {
				r.Append(Violation{Assertion: "a", SampleIndex: i, Severity: sev})
			}
			st, ok := r.Stats("a")
			if !ok {
				t.Fatal("no stats recorded")
			}
			if st.MaxSev != tc.wantMax {
				t.Fatalf("MaxSev = %v, want %v", st.MaxSev, tc.wantMax)
			}
			r.Append(Violation{Assertion: "a", SampleIndex: 99, Severity: tc.wantMax - 1})
			if st, _ := r.Stats("a"); st.MaxSev != tc.wantMax {
				t.Fatalf("MaxSev after lower record = %v, want %v", st.MaxSev, tc.wantMax)
			}
		})
	}
}

func TestRecorderCompact(t *testing.T) {
	r := NewMemStore(0)
	for i := 0; i < 10; i++ {
		name := "a"
		if i%2 == 1 {
			name = "b"
		}
		r.Append(Violation{Assertion: name, SampleIndex: i, Severity: 1, IngestUnix: int64(100 + i)})
	}
	// No policy: nothing happens.
	if n, _ := r.Compact(0, 0); n != 0 {
		t.Fatalf("no-policy Compact evicted %d", n)
	}

	// Per-assertion cap keeps the newest 2 of each.
	if n, _ := r.Compact(0, 2); n != 6 {
		t.Fatalf("cap Compact evicted %d, want 6", n)
	}
	vs := r.Query(StoreQuery{})
	if len(vs) != 4 {
		t.Fatalf("retained %d violations, want 4: %+v", len(vs), vs)
	}
	wantIdx := []int{6, 7, 8, 9} // the newest two of each assertion, arrival order
	for i, v := range vs {
		if v.SampleIndex != wantIdx[i] {
			t.Fatalf("retained[%d].SampleIndex = %d, want %d", i, v.SampleIndex, wantIdx[i])
		}
	}

	// Age bound drops everything ingested before the cutoff; unstamped
	// violations are exempt.
	r.Append(Violation{Assertion: "a", SampleIndex: 42, Severity: 1}) // IngestUnix 0
	if n, _ := r.Compact(109, 0); n != 3 {
		t.Fatalf("age Compact evicted %d, want 3", n)
	}
	vs = r.Query(StoreQuery{})
	if len(vs) != 2 || vs[0].SampleIndex != 9 || vs[1].SampleIndex != 42 {
		t.Fatalf("after age compaction: %+v", vs)
	}

	// Evictions accumulate in Compacted, not Dropped; stats are untouched.
	if got := r.Compacted(); got != 9 {
		t.Fatalf("Compacted = %d, want 9", got)
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	if got := r.TotalFired(); got != 11 {
		t.Fatalf("TotalFired = %d, want 11", got)
	}

	// The log keeps working after compaction (ring invariants hold).
	r.Append(Violation{Assertion: "b", SampleIndex: 50, Severity: 1})
	if vs = r.Query(StoreQuery{}); len(vs) != 3 || vs[2].SampleIndex != 50 {
		t.Fatalf("record after compaction: %+v", vs)
	}
}

func TestRecorderCompactBoundedRing(t *testing.T) {
	// Compacting a full, wrapped ring must preserve arrival order and
	// leave the ring usable at its bound.
	r := NewMemStore(4)
	for i := 0; i < 7; i++ { // wraps: retains 3..6
		r.Append(Violation{Assertion: "a", SampleIndex: i, Severity: 1, IngestUnix: int64(i)})
	}
	if n, _ := r.Compact(5, 0); n != 2 { // evicts 3, 4
		t.Fatalf("Compact evicted %d, want 2", n)
	}
	for i := 7; i < 10; i++ {
		r.Append(Violation{Assertion: "a", SampleIndex: i, Severity: 1, IngestUnix: int64(i)})
	}
	vs := r.Query(StoreQuery{})
	want := []int{6, 7, 8, 9} // bound 4 evicted 5 on the way back up
	if len(vs) != len(want) {
		t.Fatalf("retained %d violations, want %d: %+v", len(vs), len(want), vs)
	}
	for i, v := range vs {
		if v.SampleIndex != want[i] {
			t.Fatalf("retained[%d] = %d, want %d", i, v.SampleIndex, want[i])
		}
	}
}

// TestSeveritySumsSaturate: every severity sum clamps at ±MaxFloat64
// instead of overflowing to an infinity no encoder can write — the
// MemStore accumulator and MergeStats alike.
func TestSeveritySumsSaturate(t *testing.T) {
	s := NewMemStore(0)
	s.Append(Violation{Assertion: "a", Severity: 1e308})
	s.Append(Violation{Assertion: "a", Severity: 1e308})
	st, _ := s.Stats("a")
	if st.TotalSev != math.MaxFloat64 || st.MaxSev != 1e308 {
		t.Fatalf("MemStore stats = %+v, want TotalSev saturated at MaxFloat64", st)
	}
	if got := MergeStats(st, st).TotalSev; got != math.MaxFloat64 {
		t.Fatalf("MergeStats TotalSev = %v, want MaxFloat64", got)
	}
	if got := AddSeverity(-math.MaxFloat64, -1e308); got != -math.MaxFloat64 {
		t.Fatalf("AddSeverity = %v, want -MaxFloat64", got)
	}
	if got := AddSeverity(1.5, 2); got != 3.5 {
		t.Fatalf("AddSeverity(1.5, 2) = %v", got)
	}
}
