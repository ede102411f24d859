package assertion

import "sort"

// ShardFor routes a key to one of n shards with FNV-1a — the routing seam
// shared by MonitorPool (keyed by Sample.Stream) and the export
// collector's fan-in sharding (keyed by batch source). The hash is part
// of the persistence contract: a key keeps its shard across process
// restarts and implementations, so a data directory one process wrote
// reopens cleanly in another. n <= 1 always routes to shard 0.
func ShardFor(key string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// MergeStats combines two aggregate views of the same assertion, as held
// by two different stores (the per-shard stores of a collector): counts
// and severities sum (saturating, see AddSeverity), MaxSev is the
// maximum, and the sample range spans the earliest first to the latest
// last.
func MergeStats(a, b Stats) Stats {
	a.Fired += b.Fired
	a.TotalSev = AddSeverity(a.TotalSev, b.TotalSev)
	if b.MaxSev > a.MaxSev {
		a.MaxSev = b.MaxSev
	}
	if b.FirstSample < a.FirstSample {
		a.FirstSample = b.FirstSample
	}
	if b.LastSample > a.LastSample {
		a.LastSample = b.LastSample
	}
	return a
}

// SortViolations orders a cross-recorder merge by Time, then Stream, then
// SampleIndex — the canonical presentation order when no global arrival
// order exists (violations gathered from several recorders). The sort is
// stable, so violations a single recorder emitted in arrival order keep
// that order among ties.
func SortViolations(vs []Violation) {
	sort.SliceStable(vs, func(i, j int) bool { return keyLess(&vs[i], &vs[j]) })
}

// keyLess is the SortViolations order: Time, then Stream, then
// SampleIndex. StoreQuery.ByKey selects by the same key, which is what
// lets a sharded reader merge per-shard answers instead of whole logs.
func keyLess(a, b *Violation) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Stream != b.Stream {
		return a.Stream < b.Stream
	}
	return a.SampleIndex < b.SampleIndex
}

// MergeRecorderSnapshots combines per-shard (or per-stream) snapshots
// into the single-recorder view: statistics merge per assertion,
// violations concatenate in SortViolations order, and eviction counters
// sum. It is how a legacy snapshot of any shard count imports into a
// data directory of another.
func MergeRecorderSnapshots(snaps ...RecorderSnapshot) RecorderSnapshot {
	out := RecorderSnapshot{Stats: make(map[string]Stats)}
	for _, s := range snaps {
		for name, st := range s.Stats {
			if prev, ok := out.Stats[name]; ok {
				out.Stats[name] = MergeStats(prev, st)
			} else {
				out.Stats[name] = st
			}
		}
		out.Violations = append(out.Violations, s.Violations...)
		out.LogDropped += s.LogDropped
		out.Compacted += s.Compacted
	}
	SortViolations(out.Violations)
	return out
}
