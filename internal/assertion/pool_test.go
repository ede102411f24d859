package assertion

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// sevFn is a deterministic severity function: fires on every third sample
// with a severity derived from the index.
func sevFn(w []Sample) float64 {
	s := w[len(w)-1]
	if s.Index%3 == 0 {
		return 1 + float64(s.Index%5)
	}
	return 0
}

func poolSuite() *Suite {
	return NewSuite(
		New("every-third", sevFn),
		New("window-len", func(w []Sample) float64 { return float64(len(w) % 2) }),
	)
}

func TestPoolSingleShardMatchesMonitor(t *testing.T) {
	mon := NewMonitor(poolSuite(), WithWindowSize(4))
	pool := NewMonitorPool(poolSuite(), WithShards(1), WithPoolWindowSize(4))
	defer pool.Close()

	var batch []Sample
	for i := 0; i < 200; i++ {
		s := Sample{Index: i, Time: float64(i)}
		mon.Observe(s)
		if i%2 == 0 {
			if err := pool.Enqueue(s); err != nil {
				t.Fatal(err)
			}
			continue
		}
		batch = append(batch, s)
		if err := pool.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(mon.Recorder().Violations())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(pool.Recorder().Violations())
	if err != nil {
		t.Fatal(err)
	}
	if mon.Recorder().TotalFired() == 0 || !bytes.Equal(got, want) {
		t.Fatalf("1-shard pool recorded\n%s\nmonitor recorded\n%s", got, want)
	}
}

func TestPoolShardCountInvariance(t *testing.T) {
	// A single stream always maps to exactly one shard, so its results
	// must not depend on the shard count, sync or async.
	run := func(shards int) map[string]int {
		pool := NewMonitorPool(poolSuite(), WithShards(shards), WithPoolWindowSize(4))
		defer pool.Close()
		var batch []Sample
		for i := 0; i < 300; i++ {
			batch = append(batch, Sample{Stream: "cam-0", Index: i, Time: float64(i)})
		}
		if err := pool.ObserveBatch(batch); err != nil {
			t.Fatalf("ObserveBatch: %v", err)
		}
		if err := pool.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		return pool.Recorder().Summary()
	}
	want := run(1)
	for _, shards := range []int{2, 3, 8} {
		if got := run(shards); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: summary %v, want %v", shards, got, want)
		}
	}
}

func TestPoolPerStreamOrdering(t *testing.T) {
	// Every window an assertion sees must hold samples of one stream
	// only, in strictly increasing index order, regardless of how many
	// streams are interleaved on input.
	var mu sync.Mutex
	var violations []string
	check := New("order-check", func(w []Sample) float64 {
		stream := w[len(w)-1].Stream
		for i, s := range w {
			if s.Stream != stream {
				mu.Lock()
				violations = append(violations, fmt.Sprintf("mixed streams %q/%q", s.Stream, stream))
				mu.Unlock()
			}
			if i > 0 && s.Index != w[i-1].Index+1 {
				mu.Lock()
				violations = append(violations, fmt.Sprintf("stream %q: index %d after %d", stream, s.Index, w[i-1].Index))
				mu.Unlock()
			}
		}
		return 0
	})
	pool := NewMonitorPool(NewSuite(check), WithShards(4), WithPoolWindowSize(8), WithQueueDepth(16))
	defer pool.Close()

	const streams, perStream = 9, 200
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("cam-%d", g)
			for i := 0; i < perStream; i++ {
				if err := pool.Enqueue(Sample{Stream: key, Index: i}); err != nil {
					t.Errorf("Enqueue: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := pool.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(violations) > 0 {
		t.Fatalf("ordering violated: %v (and %d more)", violations[0], len(violations)-1)
	}
	if got := pool.Observed(); got != streams*perStream {
		t.Fatalf("Observed = %d, want %d", got, streams*perStream)
	}
}

func TestPoolConcurrentObserveAndRegister(t *testing.T) {
	// Run with -race: action registration must be safe against in-flight
	// Enqueue/ObserveBatch traffic.
	var fired sync.Map
	pool := NewMonitorPool(poolSuite(), WithShards(4))
	defer pool.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("s-%d", g)
				var err error
				if i%2 == 0 {
					err = pool.ObserveBatch([]Sample{{Stream: key, Index: i}})
				} else {
					err = pool.Enqueue(Sample{Stream: key, Index: i})
				}
				if err != nil {
					t.Errorf("observe: %v", err)
					return
				}
			}
		}(g)
	}
	regDone := make(chan struct{})
	go func() {
		defer close(regDone)
		for i := 0; i < 100; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pool.OnViolation(float64(i%10), func(v Violation) { fired.Store(v.Stream, true) })
			pool.OnAssertion("every-third", 1, func(v Violation) { fired.Store(v.Assertion, true) })
		}
	}()
	wg.Wait()
	close(stop)
	<-regDone
	if err := pool.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestPoolBackpressureEnqueue(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	slow := New("slow", func(w []Sample) float64 {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return 0
	})
	pool := NewMonitorPool(NewSuite(slow), WithShards(1), WithQueueDepth(2))

	// First sample occupies the worker; the next two fill the queue.
	if err := pool.Enqueue(Sample{Index: 0}); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 1; i <= 2; i++ {
		if err := pool.Enqueue(Sample{Index: i}); err != nil {
			t.Fatalf("Enqueue(%d) = %v", i, err)
		}
	}
	// The queue is full: the next Enqueue blocks until the worker drains.
	done := make(chan error, 1)
	go func() { done <- pool.Enqueue(Sample{Index: 3}) }()
	select {
	case err := <-done:
		t.Fatalf("Enqueue on a full queue returned %v instead of blocking", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("blocked Enqueue = %v", err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := pool.Observed(); got != 4 {
		t.Fatalf("Observed = %d, want 4", got)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestPoolCloseSemantics(t *testing.T) {
	pool := NewMonitorPool(poolSuite(), WithShards(2))
	for i := 0; i < 50; i++ {
		if err := pool.Enqueue(Sample{Stream: "s", Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close drains everything that was queued.
	if got := pool.Observed(); got != 50 {
		t.Fatalf("Observed after Close = %d, want 50", got)
	}
	if err := pool.Enqueue(Sample{Stream: "s", Index: 50}); err != ErrPoolClosed {
		t.Fatalf("Enqueue after Close = %v, want ErrPoolClosed", err)
	}
	if err := pool.ObserveBatch([]Sample{{}}); err != ErrPoolClosed {
		t.Fatalf("ObserveBatch after Close = %v, want ErrPoolClosed", err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestPoolStreamsJSONLWithStreamKey(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(0)
	rec.StreamToSink(NewJSONLSink(&buf))
	pool := NewMonitorPool(NewSuite(New("always", func([]Sample) float64 { return 1 })),
		WithShards(2), WithPoolRecorder(rec))
	if err := pool.ObserveBatch([]Sample{
		{Stream: "cam-1", Index: 0},
		{Stream: "cam-2", Index: 0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("rec.Close: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"stream":"cam-1"`) || !strings.Contains(out, `"stream":"cam-2"`) {
		t.Fatalf("JSONL missing stream keys:\n%s", out)
	}
}

// drive pushes perStream samples for each of n streams through the pool's
// async path and flushes.
func drive(t *testing.T, pool *MonitorPool, streams, perStream int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("cam-%d", g)
			for i := 0; i < perStream; i++ {
				if err := pool.Enqueue(Sample{Stream: key, Index: i, Time: float64(i)}); err != nil {
					t.Errorf("Enqueue: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := pool.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestPoolSinkWithSharedRecorder(t *testing.T) {
	mem := &captureSink{}
	always := NewSuite(New("always", func([]Sample) float64 { return 1 }))
	pool := NewMonitorPool(always, WithShards(2), WithPoolSink(mem))
	drive(t, pool, 2, 20)
	if err := pool.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := mem.Len(); got != 40 {
		t.Fatalf("sink has %d violations, want 40", got)
	}
	// The shared recorder still has the full log and stats.
	if got := pool.Recorder().TotalFired(); got != 40 {
		t.Fatalf("recorder fired %d, want 40", got)
	}
}

// TestPoolBooksBalanceAcrossClose: every violation the pool records is
// either delivered by the pool-owned sink or counted in the recorder's
// SinkDropped — including one recorded after Close, which leaves the
// closed sink attached.
func TestPoolBooksBalanceAcrossClose(t *testing.T) {
	sink := &captureSink{}
	always := NewSuite(New("always", func([]Sample) float64 { return 1 }))
	pool := NewMonitorPool(always, WithShards(2), WithPoolSink(sink))
	drive(t, pool, 3, 25)
	if err := pool.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// What a stream monitor records after Close goes into the closed sink.
	pool.Recorder().Record(Violation{Assertion: "always", Stream: "cam-0", SampleIndex: 25})
	dropped := pool.Recorder().SinkDropped()
	if dropped != 1 {
		t.Fatalf("SinkDropped = %d, want the 1 violation recorded after Close", dropped)
	}
	if delivered := int64(sink.Len()); delivered+dropped != int64(pool.TotalFired()) {
		t.Fatalf("delivered %d + dropped %d != %d fired", delivered, dropped, pool.TotalFired())
	}
}

func TestPoolPerStreamConcurrentViews(t *testing.T) {
	// Run with -race: the pool's views must be safe against in-flight
	// traffic on many streams.
	pool := NewMonitorPool(poolSuite(), WithShards(4), WithPoolRecorder(NewRecorder(100)))
	defer pool.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("s-%d", g)
			for i := 0; i < 300; i++ {
				if err := pool.Enqueue(Sample{Stream: key, Index: i}); err != nil {
					t.Errorf("Enqueue: %v", err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = pool.Summary()
			_ = pool.TotalFired()
			_ = pool.Violations()
			_, _ = pool.Stats("every-third")
		}
	}()
	wg.Wait()
	<-done
	if err := pool.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}
