package assertion

import (
	"cmp"
	"sort"
	"strings"
)

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

// MergeNewest merges answers that are each in SortViolations order — a
// sharded reader's per-store ByKey answers — into one in that order,
// keeping the greatest limit of them (0 = all). It fills the result from
// the answers' tails, so it allocates only what it returns, and a key tie
// goes to the later answer: the order SortViolations gives their
// concatenation. It consumes parts, shortening its slices.
func MergeNewest(parts [][]Violation, limit int) []Violation {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if limit > 0 {
		n = min(n, limit)
	}
	if n == 0 {
		return nil
	}
	out := make([]Violation, n)
	for k := n - 1; k >= 0; k-- {
		best := -1 // scanned from the last answer, so a tie keeps it
		for i := len(parts) - 1; i >= 0; i-- {
			p := parts[i]
			if len(p) > 0 && (best < 0 || keyLess(&parts[best][len(parts[best])-1], &p[len(p)-1])) {
				best = i
			}
		}
		last := len(parts[best]) - 1
		out[k] = parts[best][last]
		parts[best] = parts[best][:last]
	}
	return out
}

// keyLess is the SortViolations order: Time, then Stream, then
// SampleIndex. StoreQuery.ByKey selects by the same key, which is what
// lets a sharded reader merge per-shard answers instead of whole logs.
func keyLess(a, b *Violation) bool { return keyCompare(a, b) < 0 }

// keyCompare is keyLess as one three-way comparison. Two Times that
// differ without either being less — one is NaN — compare equal, keys
// and all.
func keyCompare(a, b *Violation) int {
	if a.Time != b.Time {
		switch {
		case a.Time < b.Time:
			return -1
		case a.Time > b.Time:
			return 1
		}
		return 0
	}
	if c := strings.Compare(a.Stream, b.Stream); c != 0 {
		return c
	}
	return cmp.Compare(a.SampleIndex, b.SampleIndex)
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
