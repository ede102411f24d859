package export

import (
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"omg/internal/assertion"
)

// BenchmarkHTTPSinkLoopback measures the full export path — Record,
// coalesce, JSON encode, loopback POST, collector ingest — per violation.
// Compare with the assertion package's BenchmarkJSONLSink to see what the
// network hop costs.
func BenchmarkHTTPSinkLoopback(b *testing.B) {
	c := openCollector(b, CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	s, err := NewHTTPSink(HTTPSinkConfig{BaseURL: srv.URL, BatchMax: 512})
	if err != nil {
		b.Fatal(err)
	}
	v := assertion.Violation{Assertion: "bench", Stream: "cam-0", Severity: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.SampleIndex = i
		if err := s.Record(v); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := c.TotalFired(); got != b.N {
		b.Fatalf("collector ingested %d of %d", got, b.N)
	}
	if r := s.Stats().Retries; r != 0 {
		b.Fatalf("%d retries on a healthy loopback collector", r)
	}
}

// BenchmarkCollectorIngest measures the server side alone: applying an
// already-decoded batch to the backing recorder.
func BenchmarkCollectorIngest(b *testing.B) {
	c := openCollector(b, CollectorConfig{Retain: 100000})
	batch := Batch{Version: WireVersion, Source: "bench", Violations: make([]assertion.Violation, 256)}
	for i := range batch.Violations {
		batch.Violations[i] = assertion.Violation{Assertion: "bench", Stream: "cam-0", SampleIndex: i, Severity: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Seq = uint64(i + 1)
		c.Ingest(batch)
	}
	b.ReportMetric(float64(b.N*256), "violations")
}

// BenchmarkBatchCodec races the registered wire codecs over the encode
// and decode halves separately, on the same steady-state batch the alloc
// gates use, with per-op bytes reported so each wire's size stays
// visible in every bench-smoke log.
func BenchmarkBatchCodec(b *testing.B) {
	batch := allocBenchBatch()
	codecs := []struct {
		name  string
		codec BatchCodec
	}{
		{"json", jsonCodec{}},
		{"binary", binaryCodec{}},
	}
	for _, c := range codecs {
		b.Run("encode/"+c.name, func(b *testing.B) {
			buf, err := c.codec.AppendBatch(nil, batch)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = c.codec.AppendBatch(buf[:0], batch); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			frame, err := c.codec.AppendBatch(nil, batch)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.codec.DecodeBatch(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectorFanIn measures concurrent multi-source ingest — the
// collector's fan-in hot path — against the shard count. Each parallel
// worker plays an independent edge source shipping 64-violation batches;
// with one shard every source contends on one recorder ring, with many
// shards sources spread across independent recorders.
func BenchmarkCollectorFanIn(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := openCollector(b, CollectorConfig{Retain: 100000, Shards: shards})
			defer c.Close()
			var sources atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				source := fmt.Sprintf("edge-%02d", sources.Add(1))
				batch := Batch{Version: WireVersion, Source: source, Violations: make([]assertion.Violation, 64)}
				for i := range batch.Violations {
					batch.Violations[i] = assertion.Violation{Assertion: "bench", Stream: source, SampleIndex: i, Severity: 1}
				}
				var seq uint64
				for pb.Next() {
					seq++
					batch.Seq = seq
					c.Ingest(batch)
				}
			})
			b.ReportMetric(float64(b.N)*64/b.Elapsed().Seconds(), "violations/s")
		})
	}
}
