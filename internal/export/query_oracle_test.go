package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"

	"omg/internal/assertion"
)

// referenceQuery is the read path the pushed-down Query replaced, kept as
// the oracle: concatenate every shard's whole retained log, sort the
// merge when sharded, filter afterwards, keep the tail.
func referenceQuery(c *Collector, name, stream string, limit int) []assertion.Violation {
	var all []assertion.Violation
	for _, st := range c.shards {
		all = append(all, st.Query(assertion.StoreQuery{})...)
	}
	if len(c.shards) > 1 {
		assertion.SortViolations(all)
	}
	kept := []assertion.Violation{}
	for _, v := range all {
		if (name == "" || v.Assertion == name) && (stream == "" || v.Stream == stream) {
			kept = append(kept, v)
		}
	}
	if limit > 0 && len(kept) > limit {
		kept = kept[len(kept)-limit:]
	}
	return kept
}

// referenceBody is the response the old handler wrote for the oracle's
// answer: encoding/json's rendering of QueryResponse, trailing newline
// included.
func referenceBody(t testing.TB, c *Collector, name, stream string, limit int) []byte {
	t.Helper()
	vs := referenceQuery(c, name, stream, limit)
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(QueryResponse{Count: len(vs), Violations: vs}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// queryBody serves one query through the collector's handler; a negative
// limit leaves the parameter off.
func queryBody(t testing.TB, c *Collector, name, stream string, limit int) []byte {
	t.Helper()
	params := url.Values{}
	if name != "" {
		params.Set("assertion", name)
	}
	if stream != "" {
		params.Set("stream", stream)
	}
	if limit >= 0 {
		params.Set("limit", strconv.Itoa(limit))
	}
	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/violations/query?"+params.Encode(), nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("query %v: status %d: %s", params, rr.Code, rr.Body)
	}
	return rr.Body.Bytes()
}

// ingestTies ingests n violations per source from six sources. Keys come
// from a handful of values, so equal (Time, Stream, SampleIndex) keys —
// within a shard and across shards — and empty streams are the rule, and
// Severity numbers every violation so a misordered tie shows in the bytes.
func ingestTies(c *Collector, seqBase uint64, n int) {
	for s := 0; s < 6; s++ {
		b := Batch{Version: WireVersion, Source: fmt.Sprintf("edge-%02d", s), Seq: seqBase + 1}
		for i := 0; i < n; i++ {
			k := int(seqBase)*31 + s*7 + i
			b.Violations = append(b.Violations, assertion.Violation{
				Assertion:   []string{"a", "b", "c"}[k%3],
				Stream:      []string{"", "s0", "s1", "s2"}[(k/3)%4],
				SampleIndex: (k / 5) % 2,
				Time:        float64((k / 2) % 3),
				Severity:    float64(1000*int(seqBase) + 100*s + i),
			})
		}
		c.Ingest(b)
	}
}

// TestQueryMatchesReferenceOracle holds /v1/violations/query byte-identical
// to the concatenate-sort-filter path it replaced: both backends, one to
// three shards, every filter shape and limit, over tie-heavy data in every
// state the index has to follow the log through — plain appends, a
// wrapped MemStore ring, Compact capped (one shard) and budgeted (sharded)
// retention, and — disk only — a legacy snapshot imported into the data
// dir, and a close and reopen.
func TestQueryMatchesReferenceOracle(t *testing.T) {
	open := func(t *testing.T, cfg CollectorConfig) *Collector {
		c, err := OpenCollector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	type state struct {
		name     string
		diskOnly bool
		build    func(t *testing.T, cfg CollectorConfig) *Collector
	}
	states := []state{
		{"appended", false, func(t *testing.T, cfg CollectorConfig) *Collector {
			c := open(t, cfg)
			ingestTies(c, 0, 40)
			return c
		}},
		{"wrapped", false, func(t *testing.T, cfg CollectorConfig) *Collector {
			cfg.Retain = 50 // a ring bound: only the mem backend honours it
			c := open(t, cfg)
			ingestTies(c, 0, 40)
			ingestTies(c, 1, 9)
			return c
		}},
		{"compacted", false, func(t *testing.T, cfg CollectorConfig) *Collector {
			cfg.RetainPerAssertion = 25
			cfg.CompactEvery = 1 << 40 // CompactNow only
			c := open(t, cfg)
			ingestTies(c, 0, 40)
			if c.CompactNow() == 0 {
				t.Fatal("retention evicted nothing")
			}
			ingestTies(c, 1, 5)
			return c
		}},
		{"imported", true, func(t *testing.T, cfg CollectorConfig) *Collector {
			src := open(t, CollectorConfig{Shards: cfg.Shards})
			ingestTies(src, 0, 40)
			if err := ImportSnapshot(cfg.DataDir, cfg.Shards, legacySnapshot(src)); err != nil {
				t.Fatal(err)
			}
			c := open(t, cfg)
			ingestTies(c, 1, 5)
			return c
		}},
		{"reopened", true, func(t *testing.T, cfg CollectorConfig) *Collector {
			c := open(t, cfg)
			ingestTies(c, 0, 40)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			c = open(t, cfg)
			ingestTies(c, 1, 5)
			return c
		}},
	}
	filters := [][2]string{
		{"a", ""}, {"", "s1"}, {"b", "s2"}, {"", ""}, {"never-fired", ""}, {"", "no-such-stream"}, {"c", "no-such-stream"},
	}
	limits := []int{-1, 0, 1, 2, 7, 100, 1 << 30}
	queries := 0
	for _, backend := range []string{StoreMem, StoreDisk} {
		for shards := 1; shards <= 3; shards++ {
			for _, st := range states {
				if st.diskOnly && backend != StoreDisk {
					continue
				}
				t.Run(fmt.Sprintf("%s/shards=%d/%s", backend, shards, st.name), func(t *testing.T) {
					cfg := CollectorConfig{Store: backend, Shards: shards}
					if backend == StoreDisk {
						cfg.DataDir = t.TempDir()
					}
					c := st.build(t, cfg)
					if len(referenceQuery(c, "", "", 0)) < 100 && st.name != "wrapped" {
						t.Fatal("the fixture retains too little to exercise limit=100")
					}
					for _, f := range filters {
						for _, limit := range limits {
							got, want := queryBody(t, c, f[0], f[1], limit), referenceBody(t, c, f[0], f[1], max(limit, 0))
							if !bytes.Equal(got, want) {
								t.Fatalf("assertion=%q stream=%q limit=%d\n got %s\nwant %s", f[0], f[1], limit, got, want)
							}
							queries++
						}
					}
				})
			}
		}
	}
	t.Logf("%d differential queries", queries)
}

// zoneSources returns one source name per shard, each routed to its own
// shard, so a test lays out every shard's log slot by slot.
func zoneSources(shards int) []string {
	out := make([]string, shards)
	found := 0
	for k := 0; found < shards; k++ {
		name := fmt.Sprintf("zone-%02d", k)
		if i := assertion.ShardFor(name, shards); out[i] == "" {
			out[i] = name
			found++
		}
	}
	return out
}

// zoneShapes are per-source Time orders against arrival (i is the arrival
// rank, n the load's size). Each ties Times across some block boundary;
// "plateau" ends on 300 equal Times on one stream straddling one, with
// SampleIndex falling in arrival order, so the newest by key are the
// plateau's oldest and sit in a block whose bound equals the heap
// minimum's Time.
var zoneShapes = []struct {
	name string
	at   func(i, n int) (time float64, stream string, sample int)
}{
	{"ascending", func(i, _ int) (float64, string, int) { return float64(i / 3), zoneStream(i), i % 2 }},
	{"descending", func(i, _ int) (float64, string, int) { return float64(1e6 - i/3), zoneStream(i), i % 2 }},
	{"sawtooth", func(i, _ int) (float64, string, int) { return float64(i % 700), zoneStream(i), i % 2 }},
	{"plateau", func(i, n int) (float64, string, int) {
		if i >= n-300 {
			return 1e6, "s1", n - i
		}
		return float64(i / 3), zoneStream(i), i % 2
	}},
}

func zoneStream(i int) string { return []string{"", "s0", "s1", "s2"}[i%4] }

// zoneLoad ingests n violations per source, arrival ranks from..from+n-1,
// in batches of 500.
func zoneLoad(c *Collector, sources []string, shape func(i, n int) (float64, string, int), from, n int) {
	for _, src := range sources {
		for lo := from; lo < from+n; lo += 500 {
			b := Batch{Version: WireVersion, Source: src, Seq: uint64(lo + 1)}
			for i := lo; i < min(lo+500, from+n); i++ {
				tm, stream, sample := shape(i, from+n)
				b.Violations = append(b.Violations, assertion.Violation{
					Assertion: []string{"a", "b", "c"}[i%3], Stream: stream, SampleIndex: sample,
					Time: tm, Severity: float64(i), IngestUnix: int64(1000 + i),
				})
			}
			c.Ingest(b)
		}
	}
}

// byKeyOrder returns log's ranks sorted ascending by (Time, Stream,
// SampleIndex, arrival): a store's ByKey answer at limit L is the last L
// of its matches in this order, put back in arrival order.
func byKeyOrder(log []assertion.Violation) []int {
	idx := make([]int, len(log))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		va, vb := &log[idx[a]], &log[idx[b]]
		if va.Time != vb.Time {
			return va.Time < vb.Time
		}
		if va.Stream != vb.Stream {
			return va.Stream < vb.Stream
		}
		return va.SampleIndex < vb.SampleIndex
	})
	return idx
}

// TestQueryOracleZoneMap reaches the zone map that lets a ByKey walk skip
// whole 256-slot blocks: both backends, one to three shards, every shard
// holding at least 20 blocks, Time ascending, descending, sawtooth and
// plateaued against arrival — on a plain log, a MemStore ring wrapped with
// its head mid-block, and across compactions between queries. The
// collector's answer must equal referenceQuery's, and every shard's own
// ByKey answer a sort of its retained log.
func TestQueryOracleZoneMap(t *testing.T) {
	const perShard, minBlocks = 8000, 20
	filters := [][2]string{{"", ""}, {"a", ""}, {"", "s1"}, {"b", "s2"}}
	limits := []int{1, 100, 700}
	check := func(t *testing.T, c *Collector, when string) {
		t.Helper()
		// The references sort once per check and filter per query: the
		// sorts are stable, so that is the same as filtering first.
		merged := referenceQuery(c, "", "", 0)
		logs := make([][]assertion.Violation, len(c.shards))
		sorted := make([][]int, len(c.shards))
		for i, st := range c.shards {
			logs[i] = st.Query(assertion.StoreQuery{})
			sorted[i] = byKeyOrder(logs[i])
		}
		for _, f := range filters {
			m := assertion.StoreQuery{Assertion: f[0], Stream: f[1]}
			var all []assertion.Violation
			for _, v := range merged {
				if m.Matches(v) {
					all = append(all, v)
				}
			}
			orders := make([][]int, len(logs))
			for i, log := range logs {
				for _, k := range sorted[i] {
					if m.Matches(log[k]) {
						orders[i] = append(orders[i], k)
					}
				}
			}
			for _, limit := range limits {
				q := assertion.StoreQuery{Assertion: f[0], Stream: f[1], Limit: limit}
				if got, want := c.Query(q), all[max(len(all)-limit, 0):]; !slices.Equal(got, want) {
					t.Fatalf("%s: collector %+v differs from the reference (%d vs %d violations)", when, q, len(got), len(want))
				}
				q.ByKey = true
				for i, st := range c.shards {
					picked := orders[i][max(len(orders[i])-limit, 0):]
					want := make([]assertion.Violation, len(picked))
					for j, k := range picked {
						want[j] = logs[i][k]
					}
					if got := st.Query(q); !slices.Equal(got, want) {
						t.Fatalf("%s: shard %d %+v differs from the sorted log (%d vs %d violations)", when, i, q, len(got), len(want))
					}
				}
			}
		}
	}
	spans := func(t *testing.T, c *Collector) {
		t.Helper()
		for i, st := range c.shards {
			if n := st.Info().Entries; n < minBlocks*256 {
				t.Fatalf("shard %d retains %d violations, under %d blocks", i, n, minBlocks)
			}
		}
	}
	shapes := zoneShapes
	if raceEnabled {
		// The race detector looks for unsynchronised access, which the Time
		// shape does not change, and the whole matrix costs it half a
		// minute: it keeps the plateau, whose skips are the closest calls.
		shapes = shapes[len(shapes)-1:]
	}
	for _, backend := range []string{StoreMem, StoreDisk} {
		for shards := 1; shards <= 3; shards++ {
			for _, shape := range shapes {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", backend, shards, shape.name), func(t *testing.T) {
					sources := zoneSources(shards)
					cfg := CollectorConfig{Store: backend, Shards: shards}
					if backend == StoreDisk {
						cfg.DataDir = t.TempDir()
					}
					if backend == StoreMem {
						// A ring of 5400 a shard, queried (so indexed) before
						// it wraps and again 3017 past its first wrap, its
						// head 201 slots into block 11: every overwrite
						// raises a bound in place.
						cfg := cfg
						cfg.Retain = 5400 * shards
						c := openCollector(t, cfg)
						zoneLoad(c, sources, shape.at, 0, 5200)
						check(t, c, "before the wrap")
						zoneLoad(c, sources, shape.at, 5200, 3217)
						spans(t, c)
						if got := c.LogDropped(); got != 3017*shards {
							t.Fatalf("the rings dropped %d, want %d", got, 3017*shards)
						}
						check(t, c, "wrapped")
					}

					cfg.RetainPerAssertion = 2400 * shards
					cfg.CompactEvery = 1 << 40 // CompactNow only
					c := openCollector(t, cfg)
					zoneLoad(c, sources, shape.at, 0, perShard)
					spans(t, c)
					check(t, c, "appended")
					if c.CompactNow() == 0 {
						t.Fatal("retention evicted nothing")
					}
					spans(t, c)
					check(t, c, "compacted")
					zoneLoad(c, sources, shape.at, perShard, 1000)
					check(t, c, "appended after compaction")
					c.CompactNow()
					check(t, c, "compacted twice")
				})
			}
		}
	}
}

// TestQueryResponseMatchesEncodingJSON pins the hand-written response
// encoder to encoding/json byte for byte: the empty answer (an empty
// array, never null), the trailing newline, and strings that need HTML
// and control-character escaping.
func TestQueryResponseMatchesEncodingJSON(t *testing.T) {
	for _, vs := range [][]assertion.Violation{
		nil,
		{},
		{{Assertion: "a<b>&c", Stream: "cam \"1\"\n ", SampleIndex: -3, Time: 1e21, Severity: 1e-7, IngestUnix: 7, ObservedUnixNano: 9}},
		{{Assertion: "x"}, {Assertion: "日本語", Stream: "s", Time: 0.1, Severity: 2}},
	} {
		rr := httptest.NewRecorder()
		writeQueryResponse(rr, vs)
		if vs == nil {
			vs = []assertion.Violation{}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(QueryResponse{Count: len(vs), Violations: vs}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rr.Body.Bytes(), want.Bytes()) {
			t.Fatalf("body\n got %q\nwant %q", rr.Body.Bytes(), want.Bytes())
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q", ct)
		}
	}
	rr := httptest.NewRecorder()
	writeQueryResponse(rr, nil)
	if got := rr.Body.String(); got != "{\"count\":0,\"violations\":[]}\n" {
		t.Fatalf("empty answer = %q", got)
	}
}

// TestQueryHugeLimitAllocatesByRetained is the hardening gate: limit is
// attacker-controlled, so ?limit=2000000000 over ten retained violations
// must cost what ten violations cost — a heap or result slice pre-sized by
// the limit would ask for gigabytes here.
func TestQueryHugeLimitAllocatesByRetained(t *testing.T) {
	for _, backend := range []string{StoreMem, StoreDisk} {
		for shards := 1; shards <= 2; shards++ {
			cfg := CollectorConfig{Store: backend, Shards: shards}
			if backend == StoreDisk {
				cfg.DataDir = t.TempDir()
			}
			c, err := OpenCollector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for s := 0; s < 2; s++ {
				c.Ingest(mkBatch(fmt.Sprintf("edge-%02d", s), 1, 5))
			}
			q := assertion.StoreQuery{Limit: 2_000_000_000}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := c.Query(q)
			runtime.ReadMemStats(&after)
			if len(got) != 10 {
				t.Fatalf("%s/%d shards: %d violations, want 10", backend, shards, len(got))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Fatalf("%s/%d shards: limit=2e9 over 10 retained allocated %d bytes", backend, shards, grew)
			}
		}
	}
}
