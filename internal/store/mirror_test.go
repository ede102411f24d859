package store

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"omg/internal/assertion"
)

// TestMirrorRowShape pins the row both stores' logs (assertion.RowLog)
// hold: no field the garbage collector has to scan — a string, slice, map, pointer, interface,
// channel or func anywhere in it would make every GC cycle mark the whole
// retained log again — and at most 56 bytes.
func TestMirrorRowShape(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the mirror's row must hold no pointer", path, typ.Kind())
		}
	}
	rows, _ := reflect.TypeFor[assertion.RowLog]().FieldByName("rows")
	row := rows.Type.Elem()
	walk(row, "row")
	if size := row.Size(); size > 56 {
		t.Fatalf("a row is %d bytes, want at most 56", size)
	}
}

// TestAllocRegressionSegmentMirrorHeap bounds the heap each store's row
// log holds per retained violation — the rows, their posting lists and
// name table — at a million violations over 64 streams and 8 assertions.
// A SegmentStore is measured once after the appends, with the log's growth
// slack, and once after a reopen, which sizes the log exactly; a MemStore
// ring of a million, filled and then indexed by one query, once.
func TestAllocRegressionSegmentMirrorHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is meaningless under -race")
	}
	if testing.Short() {
		t.Skip("appends a million violations")
	}
	const retained = 1_000_000
	var assertions [8]string
	var streams [64]string
	for i := range streams {
		assertions[i%8], streams[i] = fmt.Sprintf("assertion-%d", i%8), fmt.Sprintf("stream-%02d", i)
	}
	violation := func(i int) assertion.Violation {
		return assertion.Violation{Assertion: assertions[i/64%8], Stream: streams[i%64], SampleIndex: i,
			Time: float64(i) / 30, Severity: 1, IngestUnix: 1_753_800_000 + int64(i/10_000)}
	}
	heapInuse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	perViolation := func(store any, base uint64) float64 {
		b := float64(heapInuse()-base) / retained
		runtime.KeepAlive(store)
		return b
	}

	t.Run("segment", func(t *testing.T) {
		dir := t.TempDir()
		base := heapInuse()
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < retained; i++ {
			if err := s.Append(violation(i)); err != nil {
				t.Fatal(err)
			}
		}
		appended := perViolation(s, base)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = nil

		s, err = Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		reopened := perViolation(s, base)
		if n := s.Info().Entries; n != retained {
			t.Fatalf("reopened %d violations, want %d", n, retained)
		}
		t.Logf("heap in use per retained violation: %.1f B after the appends, %.1f B after a reopen", appended, reopened)
		if appended > 85 || reopened > 75 {
			t.Fatalf("heap in use per retained violation is %.1f B after the appends and %.1f B after a reopen, want at most 85 and 75",
				appended, reopened)
		}
	})

	t.Run("mem", func(t *testing.T) {
		base := heapInuse()
		m := assertion.NewMemStore(retained)
		for i := 0; i < retained; i++ {
			m.Append(violation(i))
		}
		if got := m.Query(Query{Assertion: assertions[3], Limit: 1}); len(got) != 1 {
			t.Fatalf("the indexing query answered %d violations, want 1", len(got))
		}
		indexed := perViolation(m, base)
		t.Logf("heap in use per retained violation: %.1f B, indexed", indexed)
		if indexed > 75 {
			t.Fatalf("heap in use per retained violation is %.1f B, want at most 75", indexed)
		}
	})
}

// TestMirrorNameTableBound churns stream keys through appends and
// compactions: after every step the name table holds exactly the names
// of the retained log, "" aside, so a fleet whose stream keys come and go
// does not grow it without bound.
func TestMirrorNameTableBound(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	most := 0
	for step := 0; step < 60; step++ {
		for i := 0; i < 200; i++ {
			stream := fmt.Sprintf("cam-%d-%d", step, i%10) // ten fresh keys a step
			if i%7 == 0 {
				stream = ""
			}
			if err := s.Append(mkv(fmt.Sprintf("a%d", i%3), stream, step*200+i, 1, int64(1000+step))); err != nil {
				t.Fatal(err)
			}
		}
		if step%3 == 2 {
			if _, err := s.Compact(int64(1000+step-2), 0); err != nil {
				t.Fatal(err)
			}
		}
		want := map[string]bool{}
		for _, v := range s.Query(Query{}) {
			want[v.Assertion], want[v.Stream] = true, true
		}
		delete(want, "")
		s.mu.Lock()
		table := s.log.Names()
		got := map[string]bool{}
		for _, name := range table[1:] {
			got[name] = true
		}
		s.mu.Unlock()
		if table[0] != "" || len(table)-1 != len(want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: the name table holds %d names (%v), the retained log %d", step, len(table)-1, table, len(want))
		}
		most = max(most, len(table))
	}
	// A compaction keeps three steps' keys; two more steps arrive before
	// the next one.
	if most > 3+1+50 {
		t.Fatalf("the name table peaked at %d names, want at most the 3 assertions, \"\" and the 50 streams of five steps", most)
	}
}

// FuzzMirrorRow holds the row round trip exact: a Violation appended to a
// store comes back from Query bit for bit — names through the name table,
// every number through its row field. A SegmentStore gives it back before
// and after a reopen, whichever filters the query names; a MemStore ring
// of one, where it overwrites an earlier violation, through the
// unfiltered walk, and once a filtered query has indexed the ring,
// through the postings too.
func FuzzMirrorRow(f *testing.F) {
	f.Add("a", "", int64(0), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.Copysign(0, -1)), int64(0), int64(0))
	f.Add("vehicle:flicker", "cam-7", int64(math.MaxInt64), math.Float64bits(1.5), math.Float64bits(math.MaxFloat64), int64(math.MaxInt64), int64(math.MinInt64))
	f.Add("", "s", int64(math.MinInt64), math.Float64bits(-math.MaxFloat64), math.Float64bits(5e-324), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add("same", "same", int64(-1), math.Float64bits(-2.5), math.Float64bits(-0.25), int64(-1), int64(1))
	f.Fuzz(func(t *testing.T, name, stream string, sample int64, timeBits, sevBits uint64, ingest, observed int64) {
		v := assertion.Violation{Assertion: name, Stream: stream, SampleIndex: int(sample),
			Time: math.Float64frombits(timeBits), Severity: math.Float64frombits(sevBits),
			IngestUnix: ingest, ObservedUnixNano: observed}
		for _, indexed := range []bool{false, true} {
			m := assertion.NewMemStore(1)
			queries := []Query{{}, {Limit: 1}}
			if indexed {
				queries = append(queries, Query{Assertion: name}, Query{Stream: stream}, Query{Assertion: name, Stream: stream, Limit: 1, ByKey: true})
				m.Query(Query{ByKey: true}) // indexes the empty ring
			}
			m.Append(assertion.Violation{Assertion: "earlier", Stream: "earlier", Time: 1})
			m.Append(v)
			for _, q := range queries {
				if got := m.Query(q); len(got) != 1 || !sameBits(got[0], v) {
					t.Fatalf("MemStore ring of one, indexed %v: Query(%+v) = %+v, want [%+v]", indexed, q, got, v)
				}
			}
		}
		dir := t.TempDir()
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()
		if err := s.Append(v); err != nil {
			if !math.IsNaN(v.Time) && !math.IsInf(v.Time, 0) && !math.IsNaN(v.Severity) && !math.IsInf(v.Severity, 0) {
				t.Fatalf("Append(%+v): %v", v, err)
			}
			return // a non-finite Time or Severity is refused, never stored
		}
		check := func(when string) {
			for _, q := range []Query{{}, {Assertion: name}, {Stream: stream}, {Assertion: name, Stream: stream, Limit: 1, ByKey: true}} {
				got := s.Query(q)
				if len(got) != 1 || !sameBits(got[0], v) {
					t.Fatalf("%s, Query(%+v) = %+v, want [%+v]", when, q, got, v)
				}
			}
		}
		check("appended")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(Config{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		check("reopened")
	})
}

// sameBits reports whether a and b are the same violation to the bit: a
// -0 Time or Severity is not a +0.
func sameBits(a, b assertion.Violation) bool {
	return a.Assertion == b.Assertion && a.Stream == b.Stream && a.SampleIndex == b.SampleIndex &&
		math.Float64bits(a.Time) == math.Float64bits(b.Time) && math.Float64bits(a.Severity) == math.Float64bits(b.Severity) &&
		a.IngestUnix == b.IngestUnix && a.ObservedUnixNano == b.ObservedUnixNano
}
