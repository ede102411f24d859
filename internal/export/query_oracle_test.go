package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
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
