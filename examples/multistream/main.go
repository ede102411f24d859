// Multistream: monitor a fleet of model streams with a sharded
// MonitorPool — the production shape of the paper's runtime-monitoring
// story (§2.3), where one assertion suite watches many concurrent
// deployments (cameras, patients, feeds) at once.
//
// The "models" here are toy temperature estimators, one per sensor, whose
// outputs occasionally spike; the assertions encode that readings stay in
// a physical range and do not jump between consecutive samples of the
// same sensor. Each sensor is its own stream with its own sliding window;
// every violation lands in the pool's one bounded recorder, which the
// dashboard below queries, and streams as JSONL to stderr through the
// pool-owned sink.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"

	"omg"
)

func main() {
	// 1. Register assertions once for the whole fleet. Windows are
	// per-stream: consecutive samples in a window belong to one sensor.
	reg := omg.NewRegistry()
	reg.MustAdd(omg.NewBoolAssertion("out-of-range", func(w []omg.Sample) bool {
		t := w[len(w)-1].Output.(float64)
		return t < -40 || t > 60
	}))
	reg.MustAdd(omg.NewAssertion("temp-jump", func(w []omg.Sample) float64 {
		if len(w) < 2 {
			return 0
		}
		prev := w[len(w)-2].Output.(float64)
		cur := w[len(w)-1].Output.(float64)
		jump := cur - prev
		if jump < 0 {
			jump = -jump
		}
		if jump > 5 {
			return jump // severity = size of the implausible jump
		}
		return 0
	}))

	// 2. Build the sharded pool: one recorder retaining the newest 1000
	// violations of the whole fleet, and an asynchronous JSONL stream on
	// stderr that the pool owns and closes on pool.Close.
	pool := omg.NewMonitorPool(reg.Suite(),
		omg.WithShards(4),
		omg.WithPoolWindowSize(8),
		omg.WithQueueDepth(64),
		omg.WithPoolRecorder(omg.NewRecorder(1000)),
		omg.WithPoolSink(omg.NewJSONLSink(os.Stderr)),
	)

	// Corrective action: page the on-call when any sensor jumps hard.
	// Actions can fire concurrently across shards, hence the atomic.
	var pages atomic.Int64
	pool.OnAssertion("temp-jump", 10, func(v omg.Violation) { pages.Add(1) })

	// 3. Drive 16 sensors concurrently through the async ingestion path.
	// Enqueue blocks when a shard queue is full — backpressure, not loss.
	const sensors, samples = 16, 500
	var wg sync.WaitGroup
	for s := 0; s < sensors; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			key := fmt.Sprintf("sensor-%02d", s)
			temp := 20.0
			for i := 0; i < samples; i++ {
				temp += rng.NormFloat64()
				reading := temp
				if rng.Float64() < 0.01 { // transient spike fault
					reading += 15 + 10*rng.Float64()
				}
				if err := pool.Enqueue(omg.Sample{
					Stream: key, Index: i, Time: float64(i) / 10, Output: reading,
				}); err != nil {
					panic(err)
				}
			}
		}(s)
	}
	wg.Wait()

	// 4. Drain the pipeline and the sink, then read the dashboard from the
	// pool's recorder.
	if err := pool.Close(); err != nil {
		panic(err)
	}
	fmt.Printf("observed %d samples from %d sensors on %d shards\n",
		pool.Observed(), pool.NumStreams(), pool.NumShards())
	fmt.Printf("violations: %d (pages sent: %d)\n", pool.TotalFired(), pages.Load())
	for _, name := range pool.AssertionNames() {
		st, _ := pool.Stats(name)
		fmt.Printf("  %-14s fired %3d times, max severity %.1f\n", name, st.Fired, st.MaxSev)
	}
	// Per-stream drill-down: one sensor's retained violations.
	sensor := pool.Recorder().Query(omg.StoreQuery{Stream: "sensor-00"})
	fmt.Printf("recorder retains %d violations, %d of them from sensor-00\n",
		len(pool.Violations()), len(sensor))
}
