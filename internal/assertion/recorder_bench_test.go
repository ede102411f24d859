package assertion

import (
	"fmt"
	"testing"
)

// BenchmarkRecorderRecordBounded is the regression benchmark for the ring
// buffer: recording into a full bounded log must be O(1) per call, so
// ns/op must stay flat as the limit grows. The previous implementation
// shifted the whole slice on every eviction, i.e. O(limit) per call.
func BenchmarkRecorderRecordBounded(b *testing.B) {
	for _, limit := range []int{1024, 16384, 262144} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			r := NewRecorder(limit)
			v := Violation{Assertion: "a", Severity: 1}
			for i := 0; i < limit; i++ { // fill so every Record evicts
				v.SampleIndex = i
				r.Record(v)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.SampleIndex = i
				r.Record(v)
			}
		})
	}
}

// BenchmarkRecorderRecordParallel measures Record under contention from
// many goroutines: each takes the store's one lock for the statistics and
// the ring together.
func BenchmarkRecorderRecordParallel(b *testing.B) {
	r := NewRecorder(4096)
	b.RunParallel(func(pb *testing.PB) {
		v := Violation{Assertion: "a", Severity: 1}
		i := 0
		for pb.Next() {
			v.SampleIndex = i
			r.Record(v)
			i++
		}
	})
}
