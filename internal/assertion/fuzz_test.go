package assertion

import (
	"encoding/json"
	"hash/fnv"
	"testing"
)

// FuzzShardFor locks down the PR-1 routing claims for arbitrary stream
// keys: shardFor is deterministic, independent of unrelated pool
// configuration, in range, exactly FNV-1a, and a 1-shard pool's recorded
// output is byte-identical to a plain Monitor fed the same samples.
func FuzzShardFor(f *testing.F) {
	f.Add("cam-0", uint8(4))
	f.Add("", uint8(1))
	f.Add("sensor-15", uint8(16))
	f.Add("a\x00b", uint8(3))
	f.Add("日本語-stream", uint8(7))
	f.Fuzz(func(t *testing.T, stream string, shardByte uint8) {
		shards := int(shardByte%16) + 1

		p1 := NewMonitorPool(poolSuite(), WithShards(shards))
		defer p1.Close()
		p2 := NewMonitorPool(poolSuite(), WithShards(shards),
			WithQueueDepth(7), WithPoolWindowSize(3))
		defer p2.Close()

		got := p1.shardFor(stream)
		if got < 0 || got >= shards {
			t.Fatalf("shardFor(%q) = %d, out of range [0,%d)", stream, got, shards)
		}
		if again := p1.shardFor(stream); again != got {
			t.Fatalf("shardFor(%q) not deterministic: %d then %d", stream, got, again)
		}
		if other := p2.shardFor(stream); other != got {
			t.Fatalf("shardFor(%q) depends on unrelated pool config: %d vs %d", stream, got, other)
		}
		if shards == 1 {
			if got != 0 {
				t.Fatalf("1-shard pool routed %q to %d", stream, got)
			}
		} else {
			// The route must be exactly FNV-1a mod shards, so keys keep
			// their shard across process restarts and implementations.
			h := fnv.New32a()
			h.Write([]byte(stream))
			if want := int(h.Sum32() % uint32(shards)); got != want {
				t.Fatalf("shardFor(%q) = %d, want FNV-1a %d", stream, got, want)
			}
		}

		// Equivalence: a 1-shard pool must record byte-for-byte what a
		// plain Monitor records for the same samples.
		mon := NewMonitor(poolSuite(), WithWindowSize(4))
		pool := NewMonitorPool(poolSuite(), WithShards(1), WithPoolWindowSize(4))
		defer pool.Close()
		for i, c := range []byte(stream + "x") { // +"x" so empty keys still observe
			s := Sample{Stream: stream, Index: i, Time: float64(c)}
			mon.Observe(s)
			if err := pool.Enqueue(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := pool.Flush(); err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(mon.Recorder().Violations())
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(pool.Recorder().Violations())
		if err != nil {
			t.Fatal(err)
		}
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("1-shard pool output diverged from Monitor:\npool:    %s\nmonitor: %s", gotJSON, wantJSON)
		}
	})
}
