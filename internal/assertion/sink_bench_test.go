package assertion

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"
)

// benchSink measures the Record hot path of one backend, flushing once at
// the end so queued work is attributed to the benchmark.
func benchSink(b *testing.B, s Sink) {
	b.Helper()
	v := Violation{Assertion: "a", Severity: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.SampleIndex = i
		if err := s.Record(v); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkJSONLSink(b *testing.B) {
	benchSink(b, NewJSONLSink(io.Discard))
}

func BenchmarkMultiSink(b *testing.B) {
	benchSink(b, NewMultiSink(NewJSONLSink(io.Discard), NewJSONLSink(io.Discard)))
}

// BenchmarkMonitorPoolAlwaysFiring prices the pool under parallel
// always-firing traffic: each goroutine Enqueues its own stream, and every
// sample records into the pool's one bounded recorder. The closing Flush
// keeps every evaluation inside the timed region.
func BenchmarkMonitorPoolAlwaysFiring(b *testing.B) {
	suite := NewSuite(New("always", func(w []Sample) float64 { return 1 }))
	pool := NewMonitorPool(suite, WithShards(8), WithPoolWindowSize(4),
		WithPoolRecorder(NewRecorder(1024)))
	defer pool.Close()
	var streamID atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("stream-%d", streamID.Add(1))
		i := 0
		for pb.Next() {
			if err := pool.Enqueue(Sample{Stream: key, Index: i}); err != nil {
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
