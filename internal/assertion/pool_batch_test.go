package assertion

import (
	"fmt"
	"reflect"
	"testing"
)

// orderSuite fires on every sample with a severity derived from its index,
// so the recorded violation sequence is a faithful trace of evaluation
// order per stream.
func orderSuite() *Suite {
	return NewSuite(
		New("trace", func(w []Sample) float64 {
			return float64(w[len(w)-1].Index) + 1
		}),
		New("window-len", func(w []Sample) float64 {
			return float64(len(w))
		}),
	)
}

// perStreamTrace groups the recorded violations of one assertion by
// stream, preserving arrival order within each stream.
func perStreamTrace(vs []Violation) map[string][]Violation {
	out := make(map[string][]Violation)
	for _, v := range vs {
		out[v.Stream] = append(out[v.Stream], v)
	}
	return out
}

// FuzzObserveBatchOrder locks the batch-aware ObserveBatch to the
// per-sample Enqueue path: for an arbitrary mix of streams and batch
// sizes, both must evaluate every stream's samples in the same order and
// record identical per-stream violation sequences. This is the invariant
// that lets the pool group a batch by shard and ship one chunk per shard
// without changing what any stream observes.
func FuzzObserveBatchOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{9, 9, 9, 9}, uint8(2))
	f.Add([]byte{0, 255, 3, 128, 3, 0, 0, 17, 42}, uint8(13))
	f.Fuzz(func(t *testing.T, routing []byte, shardByte uint8) {
		shards := int(shardByte%8) + 1
		if len(routing) > 512 {
			routing = routing[:512]
		}
		samples := make([]Sample, len(routing))
		for i, b := range routing {
			samples[i] = Sample{
				Stream: fmt.Sprintf("stream-%d", b%7),
				Index:  i,
				Time:   float64(i) / 10,
			}
		}

		// Reference: the old ObserveBatch semantics, one Enqueue per sample.
		ref := NewMonitorPool(orderSuite(), WithShards(shards), WithPoolWindowSize(4))
		for _, s := range samples {
			if err := ref.Enqueue(s); err != nil {
				t.Fatalf("Enqueue: %v", err)
			}
		}
		if err := ref.Close(); err != nil {
			t.Fatalf("close ref pool: %v", err)
		}

		// Batch-aware path, whole batch in one call.
		got := NewMonitorPool(orderSuite(), WithShards(shards), WithPoolWindowSize(4))
		if err := got.ObserveBatch(samples); err != nil {
			t.Fatalf("ObserveBatch: %v", err)
		}
		if err := got.Close(); err != nil {
			t.Fatalf("close batch pool: %v", err)
		}

		want := perStreamTrace(ref.Recorder().Violations())
		have := perStreamTrace(got.Recorder().Violations())
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("per-stream violation order diverged:\nenqueue path: %v\nbatch path:   %v", want, have)
		}
		if ref.Observed() != got.Observed() {
			t.Fatalf("observed counts diverged: %d vs %d", ref.Observed(), got.Observed())
		}
	})
}

// TestObserveBatchSplitsAcrossCalls checks that consecutive ObserveBatch
// calls keep a stream's order across batches, and that single-sample
// batches take the inline fast path.
func TestObserveBatchSplitsAcrossCalls(t *testing.T) {
	pool := NewMonitorPool(orderSuite(), WithShards(4), WithPoolWindowSize(4))
	defer pool.Close()
	var batch []Sample
	idx := 0
	for call := 0; call < 7; call++ {
		n := (call % 3) + 1 // batch sizes 1..3 exercise both paths
		batch = batch[:0]
		for i := 0; i < n; i++ {
			batch = append(batch, Sample{Stream: "s", Index: idx, Time: float64(idx)})
			idx++
		}
		if err := pool.ObserveBatch(batch); err != nil {
			t.Fatalf("ObserveBatch: %v", err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	vs := pool.Recorder().Query(StoreQuery{Assertion: "trace"})
	if len(vs) != idx {
		t.Fatalf("recorded %d violations, want %d", len(vs), idx)
	}
	for i, v := range vs {
		if v.SampleIndex != i {
			t.Fatalf("violation %d has sample index %d; order broken: %v", i, v.SampleIndex, vs)
		}
	}
}

// TestObserveBatchClosed verifies the batch path still reports pool
// closure instead of hanging or panicking.
func TestObserveBatchClosed(t *testing.T) {
	pool := NewMonitorPool(orderSuite(), WithShards(2))
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.ObserveBatch([]Sample{{Index: 0}}); err != ErrPoolClosed {
		t.Fatalf("ObserveBatch on closed pool = %v, want ErrPoolClosed", err)
	}
	if err := pool.ObserveBatch(nil); err != nil {
		t.Fatalf("empty batch must be a no-op even when closed, got %v", err)
	}
}
