package store

import (
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"omg/internal/assertion"
)

// mkv builds a test violation with distinguishable fields.
func mkv(name, stream string, i int, sev float64, ingest int64) assertion.Violation {
	return assertion.Violation{
		Assertion:   name,
		Stream:      stream,
		SampleIndex: i,
		Time:        float64(i) / 10,
		Severity:    sev,
		IngestUnix:  ingest,
	}
}

// backends returns a fresh instance of every ViolationStore
// implementation, keyed by name. The cleanup closes disk-backed stores.
func backends(t *testing.T) map[string]assertion.ViolationStore {
	t.Helper()
	seg, err := Open(Config{Dir: t.TempDir(), SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { seg.Close() })
	return map[string]assertion.ViolationStore{
		"mem":     assertion.NewMemStore(0),
		"segment": seg,
	}
}

func TestContractAppendAndViews(t *testing.T) {
	vs := []assertion.Violation{
		mkv("a", "cam0", 1, 0.5, 100),
		mkv("b", "cam1", 2, 2.0, 101),
		mkv("a", "cam1", 3, 1.5, 102),
		mkv("a", "", 4, -0.5, 0),
		mkv("c", "cam0", 5, 3.0, 103),
	}
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, v := range vs {
				if err := s.Append(v); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			if got := s.Query(Query{}); !reflect.DeepEqual(got, vs) {
				t.Fatalf("Violations = %+v, want %+v", got, vs)
			}
			if got := s.Query(Query{Assertion: "a"}); len(got) != 3 || got[0].SampleIndex != 1 || got[2].SampleIndex != 4 {
				t.Fatalf("ByAssertion(a) = %+v", got)
			}
			if got := s.Query(Query{Assertion: "nope"}); len(got) != 0 {
				t.Fatalf("ByAssertion(nope) = %+v", got)
			}
			if got := s.TotalFired(); got != len(vs) {
				t.Fatalf("TotalFired = %d, want %d", got, len(vs))
			}
			st, ok := s.StatsAll()["a"]
			if !ok || st.Fired != 3 || st.MaxSev != 1.5 || st.TotalSev != 1.5 || st.FirstSample != 1 || st.LastSample != 4 {
				t.Fatalf("Stats(a) = %+v ok=%v", st, ok)
			}
			all := s.StatsAll()
			if len(all) != 3 || all["b"].Fired != 1 || all["c"].MaxSev != 3.0 {
				t.Fatalf("StatsAll = %+v", all)
			}
			if s.Dropped() != 0 || s.Compacted() != 0 {
				t.Fatalf("Dropped/Compacted nonzero on fresh store")
			}
		})
	}
}

func TestContractQuery(t *testing.T) {
	vs := []assertion.Violation{
		mkv("a", "cam0", 1, 0.5, 100),
		mkv("b", "cam1", 2, 2.0, 101),
		mkv("a", "cam1", 3, 1.5, 102),
		mkv("a", "", 4, -0.5, 0),
		mkv("a", "cam0", 5, 3.0, 103),
	}
	cases := []struct {
		name string
		q    Query
		want []int // expected SampleIndex values, arrival order
	}{
		{"all", Query{}, []int{1, 2, 3, 4, 5}},
		{"byAssertion", Query{Assertion: "a"}, []int{1, 3, 4, 5}},
		{"byStream", Query{Stream: "cam0"}, []int{1, 5}},
		{"byBoth", Query{Assertion: "a", Stream: "cam1"}, []int{3}},
		{"minIngest", Query{MinIngestUnix: 101}, []int{2, 3, 5}},
		{"maxIngest", Query{MaxIngestUnix: 101}, []int{1, 2}},
		{"window", Query{MinIngestUnix: 101, MaxIngestUnix: 102}, []int{2, 3}},
		{"limitNewest", Query{Assertion: "a", Limit: 2}, []int{4, 5}},
		{"noMatch", Query{Assertion: "zz"}, nil},
	}
	for backend, s := range backends(t) {
		t.Run(backend, func(t *testing.T) {
			for _, v := range vs {
				if err := s.Append(v); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			for _, tc := range cases {
				got := s.Query(tc.q)
				var idx []int
				for _, v := range got {
					idx = append(idx, v.SampleIndex)
				}
				if !reflect.DeepEqual(idx, tc.want) {
					t.Errorf("%s: Query(%+v) = %v, want %v", tc.name, tc.q, idx, tc.want)
				}
			}
		})
	}
}

func TestContractCompact(t *testing.T) {
	for backend, s := range backends(t) {
		t.Run(backend, func(t *testing.T) {
			for i := 1; i <= 10; i++ {
				name := "even"
				if i%2 == 1 {
					name = "odd"
				}
				if err := s.Append(mkv(name, "s", i, 1, int64(100+i))); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			// Age bound: drop everything ingested before 105.
			n, err := s.Compact(105, 0)
			if err != nil || n != 4 {
				t.Fatalf("Compact(age) = %d, %v; want 4", n, err)
			}
			// Per-assertion cap: keep the newest 2 of each.
			n, err = s.Compact(0, 2)
			if err != nil || n != 2 {
				t.Fatalf("Compact(cap) = %d, %v; want 2", n, err)
			}
			var idx []int
			for _, v := range s.Query(Query{}) {
				idx = append(idx, v.SampleIndex)
			}
			if want := []int{7, 8, 9, 10}; !reflect.DeepEqual(idx, want) {
				t.Fatalf("after compaction: %v, want %v", idx, want)
			}
			// Budgets: keep only the newest odd.
			n, err = s.Compact(0, 0, map[string]int{"odd": 1})
			if err != nil || n != 1 {
				t.Fatalf("budgeted Compact = %d, %v; want 1", n, err)
			}
			if got := s.Compacted(); got != 7 {
				t.Fatalf("Compacted = %d, want 7", got)
			}
			// Stats survive every eviction.
			if got := s.TotalFired(); got != 10 {
				t.Fatalf("TotalFired after compaction = %d, want 10", got)
			}
			if st := s.StatsAll()["odd"]; st.Fired != 5 {
				t.Fatalf("Stats(odd).Fired = %d, want 5", st.Fired)
			}
		})
	}
}

// The seam has no Clear of its own: replacing a store's state with the
// empty snapshot is how a reader of the interface resets one.
func TestContractClear(t *testing.T) {
	for backend, s := range backends(t) {
		t.Run(backend, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				s.Append(mkv("a", "s", i, 1, 100))
			}
			if err := s.Replace(assertion.RecorderSnapshot{}); err != nil {
				t.Fatalf("Clear: %v", err)
			}
			if len(s.Query(Query{})) != 0 || s.TotalFired() != 0 || len(s.StatsAll()) != 0 {
				t.Fatalf("state survived Clear")
			}
			// The store stays usable.
			if err := s.Append(mkv("b", "s", 1, 1, 100)); err != nil {
				t.Fatalf("Append after Clear: %v", err)
			}
			if s.TotalFired() != 1 {
				t.Fatalf("TotalFired after Clear+Append = %d", s.TotalFired())
			}
		})
	}
}

func TestContractExportReplaceRoundTrip(t *testing.T) {
	// A legacy (mem-shaped) snapshot restores into either backend.
	src := assertion.NewMemStore(0)
	for i := 1; i <= 6; i++ {
		src.Append(mkv("a", "s", i, float64(i), int64(100+i)))
	}
	src.Compact(0, 4)
	snap := src.Export()
	if snap.Store != nil {
		t.Fatalf("mem export carries a store checkpoint: %+v", snap.Store)
	}
	for backend, s := range backends(t) {
		t.Run(backend, func(t *testing.T) {
			if err := s.Replace(snap); err != nil {
				t.Fatalf("Replace: %v", err)
			}
			if got := s.TotalFired(); got != 6 {
				t.Fatalf("TotalFired = %d, want 6", got)
			}
			if got := len(s.Query(Query{})); got != 4 {
				t.Fatalf("retained = %d, want 4", got)
			}
			if got := s.Compacted(); got != 2 {
				t.Fatalf("Compacted = %d, want 2", got)
			}
			if !reflect.DeepEqual(s.StatsAll(), src.StatsAll()) {
				t.Fatalf("StatsAll mismatch after Replace")
			}
		})
	}
}

func TestContractInfo(t *testing.T) {
	for backend, s := range backends(t) {
		t.Run(backend, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				s.Append(mkv("a", "s", i, 1, 100))
			}
			info := s.Info()
			if info.Backend != backend {
				t.Fatalf("Backend = %q, want %q", info.Backend, backend)
			}
			if info.Entries != 3 {
				t.Fatalf("Entries = %d, want 3", info.Entries)
			}
			if backend == "segment" && (info.Segments < 1 || info.Bytes == 0) {
				t.Fatalf("segment Info = %+v", info)
			}
		})
	}
}

func TestContractConcurrentAppendCompact(t *testing.T) {
	// Satellite: Record concurrent with capped and budgeted Compact must never
	// regress TotalFired or Stats, and limited queries walking the index
	// beside them must answer inside their filter. Run against both
	// backends under -race.
	for backend, s := range backends(t) {
		t.Run(backend, func(t *testing.T) {
			const writers, perWriter = 4, 200
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 50; i++ {
					if _, err := s.Compact(0, 20); err != nil {
						t.Errorf("Compact: %v", err)
						return
					}
					if _, err := s.Compact(0, 0, map[string]int{"w0": 10}); err != nil {
						t.Errorf("budgeted Compact: %v", err)
						return
					}
				}
			}()
			stop, readerDone := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(readerDone)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, q := range []Query{{Assertion: "w1", Limit: 5}, {Stream: "s", Limit: 5, ByKey: true}, {}} {
						for _, v := range s.Query(q) {
							if !q.Matches(v) {
								t.Errorf("Query(%+v) answered %+v", q, v)
								return
							}
						}
					}
				}
			}()
			var wg sync.WaitGroup
			lastSeen := make([]int, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					name := "w" + strconv.Itoa(w)
					for i := 0; i < perWriter; i++ {
						if err := s.Append(mkv(name, "s", i, 1, 100)); err != nil {
							t.Errorf("Append: %v", err)
							return
						}
						st, ok := s.StatsAll()[name]
						if !ok || st.Fired < lastSeen[w] {
							t.Errorf("Stats(%s) regressed: %d -> %d", name, lastSeen[w], st.Fired)
							return
						}
						lastSeen[w] = st.Fired
					}
				}(w)
			}
			wg.Wait()
			<-done
			close(stop)
			<-readerDone
			if got := s.TotalFired(); got != writers*perWriter {
				t.Fatalf("TotalFired = %d, want %d", got, writers*perWriter)
			}
		})
	}
}

// TestCompactionKeepsNewestSuffix is the property test: for any log and
// any budget, compaction retains exactly the newest-K suffix of each
// assertion's violations (age-exempt entries aside).
func TestCompactionKeepsNewestSuffix(t *testing.T) {
	rng := simpleRNG(42)
	for trial := 0; trial < 25; trial++ {
		var vs []assertion.Violation
		n := 20 + int(rng()%60)
		for i := 0; i < n; i++ {
			name := "a" + strconv.Itoa(int(rng()%4))
			vs = append(vs, mkv(name, "s", i, 1, int64(100+i)))
		}
		cap := 1 + int(rng()%6)
		for backend, s := range backends(t) {
			for _, v := range vs {
				if err := s.Append(v); err != nil {
					t.Fatalf("%s: Append: %v", backend, err)
				}
			}
			if _, err := s.Compact(0, cap); err != nil {
				t.Fatalf("%s: Compact: %v", backend, err)
			}
			// Expected survivors: the newest cap per assertion, in the
			// original arrival order.
			perName := make(map[string][]int)
			for i, v := range vs {
				perName[v.Assertion] = append(perName[v.Assertion], i)
			}
			keep := make(map[int]bool)
			for _, idxs := range perName {
				start := 0
				if len(idxs) > cap {
					start = len(idxs) - cap
				}
				for _, i := range idxs[start:] {
					keep[i] = true
				}
			}
			var want []int
			for i := range vs {
				if keep[i] {
					want = append(want, i)
				}
			}
			sort.Ints(want)
			var got []int
			for _, v := range s.Query(Query{}) {
				got = append(got, v.SampleIndex)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d cap %d: survivors %v, want %v", backend, trial, cap, got, want)
			}
		}
	}
}

// simpleRNG is a deterministic xorshift generator, so the property test
// needs no seeded stdlib randomness.
func simpleRNG(seed uint64) func() uint64 {
	x := seed
	return func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
}
