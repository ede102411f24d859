package export

import (
	"fmt"
	"runtime"
	"testing"

	"omg/internal/assertion"
	"omg/internal/store"
)

// allocBenchBatch builds the steady-state ingest shape the alloc budget
// is asserted over: a full default-sized batch whose assertion and stream
// names repeat, as a real edge's do.
func allocBenchBatch() Batch {
	b := Batch{Version: WireVersion, Source: "edge-alloc-01", Seq: 1}
	for i := 0; i < 256; i++ {
		b.Violations = append(b.Violations, assertion.Violation{
			Assertion:        []string{"flicker", "agree", "range", "ocr"}[i%4],
			Stream:           []string{"cam-00", "cam-01", "cam-02"}[i%3],
			SampleIndex:      i,
			Time:             float64(i) / 30,
			Severity:         float64(i%5) + 0.5,
			IngestUnix:       1753800000,
			ObservedUnixNano: 1753800000_000000000 + int64(i),
		})
	}
	return b
}

// TestAllocRegressionBinaryDecodeBatch asserts the tentpole claim of the
// binary ingest path: decoding a steady-state 256-violation frame costs
// at most 2 heap allocations — the violations slice, and nothing else
// (pooled decoder scratch, interned strings, in-place fixed-width
// fields). Skipped under -race (instrumentation allocates); the CI
// alloc-gate job runs it without -race and fails on the skip.
func TestAllocRegressionBinaryDecodeBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	codec := &BinaryCodec{}
	frame, err := codec.AppendBatch(nil, allocBenchBatch())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the decoder pool and its intern table.
	for i := 0; i < 16; i++ {
		if _, err := codec.DecodeBatch(frame); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := codec.DecodeBatch(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("binary DecodeBatch allocated %.1f times per frame, want <= 2", allocs)
	}
}

// TestAllocRegressionBinaryEncodeBatch keeps the encode side honest too:
// appending a frame into a warmed buffer must not allocate at all, so the
// HTTPSink shipper's reused buffer keeps the whole encode off the heap.
func TestAllocRegressionBinaryEncodeBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	codec := &BinaryCodec{}
	b := allocBenchBatch()
	buf, err := codec.AppendBatch(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = codec.AppendBatch(buf[:0], b)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("binary AppendBatch allocated %.1f times per frame into a warm buffer, want 0", allocs)
	}
}

// TestAllocRegressionQueryNewest asserts the pushed-down read path's cost
// model on both backends: over 100K retained violations, a Limit-100
// query — unfiltered, by stream or by assertion, newest by arrival or by
// key — allocates O(limit), never a copy of the retained log. The ceiling
// is 16 KiB per query: the 100-row answer (72 B a row, 8 KiB once rounded
// to its size class) plus the 100 picked ranks measure 9088 B; the
// copy-everything path it replaced allocated 7 MB here.
func TestAllocRegressionQueryNewest(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	const retained, ceiling = 100_000, 16 << 10
	seg, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	mem := assertion.NewMemStore(retained)
	for i := 0; i < retained*3/2; i++ { // wraps the mem ring half way round
		v := assertion.Violation{
			Assertion: fmt.Sprintf("assert-%d", i%8), Stream: fmt.Sprintf("cam-%d", i%64),
			SampleIndex: i, Time: float64(i%1000) / 10, Severity: 1,
		}
		mem.Append(v)
		if i >= retained/2 {
			if err := seg.Append(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, s := range map[string]assertion.ViolationStore{"mem": mem, "segment": seg} {
		if got := s.Info().Entries; got != retained {
			t.Fatalf("%s retains %d, want %d", name, got, retained)
		}
		for _, q := range []assertion.StoreQuery{{}, {Stream: "cam-7"}, {Assertion: "assert-3"}} {
			for _, byKey := range []bool{false, true} {
				q.Limit, q.ByKey = 100, byKey
				s.Query(q) // MemStore builds its index on the first filtered query
				const runs = 20
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					if got := s.Query(q); len(got) != q.Limit {
						t.Fatalf("%s %+v: %d violations", name, q, len(got))
					}
				}
				runtime.ReadMemStats(&after)
				if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > ceiling {
					t.Errorf("%s Query(%+v) allocated %d bytes, want <= %d", name, q, per, ceiling)
				} else {
					t.Logf("%s Query(%+v): %d bytes", name, q, per)
				}
			}
		}
	}
}
