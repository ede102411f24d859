package main

import (
	"math"
	"strings"
	"testing"
)

const pageBefore = `# HELP omg_collector_ingest_decode_seconds Collector wire decode time per ingest request, by codec.
# TYPE omg_collector_ingest_decode_seconds histogram
omg_collector_ingest_decode_seconds_bucket{codec="binary",le="1.28e-07"} 0
omg_collector_ingest_decode_seconds_bucket{codec="binary",le="+Inf"} 10
omg_collector_ingest_decode_seconds_sum{codec="binary"} 0.001
omg_collector_ingest_decode_seconds_count{codec="binary"} 10
omg_collector_ingest_decode_seconds_sum{codec="json"} 0.004
omg_collector_ingest_decode_seconds_count{codec="json"} 10
omg_collector_ingest_apply_seconds_sum 0.5
omg_collector_ingest_apply_seconds_count 20
omg_collector_duplicate_batches_total 0
go_gomaxprocs 2
`

const pageAfter = `omg_collector_ingest_decode_seconds_sum{codec="binary"} 0.003
omg_collector_ingest_decode_seconds_count{codec="binary"} 30
omg_collector_ingest_decode_seconds_sum{codec="json"} 0.012
omg_collector_ingest_decode_seconds_count{codec="json"} 20
omg_collector_ingest_apply_seconds_sum 0.5
omg_collector_ingest_apply_seconds_count 20
omg_collector_duplicate_batches_total 8
omg_collector_ingest_rejected_total{reason="decode"} 2
this line is not a sample
go_gomaxprocs 2
`

func TestScrapeSumCount(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(pageBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(pageAfter))
	if err != nil {
		t.Fatal(err)
	}
	// Label children fold into the family: 20 binary + 10 json new
	// observations, 0.002 + 0.008 new seconds.
	mean, ok := after.meanSince(before, "omg_collector_ingest_decode_seconds")
	if !ok || math.Abs(mean-0.010/30) > 1e-12 {
		t.Errorf("decode mean = %v, %v; want %v", mean, ok, 0.010/30)
	}
	// A family nothing was recorded in since the first scrape has no mean.
	if _, ok := after.meanSince(before, "omg_collector_ingest_apply_seconds"); ok {
		t.Error("apply had no new observations but reported a mean")
	}
	// From an empty page, the mean is over everything.
	mean, ok = after.meanSince(scrape{}, "omg_collector_ingest_apply_seconds")
	if !ok || math.Abs(mean-0.025) > 1e-12 {
		t.Errorf("apply lifetime mean = %v, %v", mean, ok)
	}
	if after.series["omg_collector_duplicate_batches_total"] != 8 {
		t.Errorf("duplicates = %v", after.series["omg_collector_duplicate_batches_total"])
	}
	if after.series[`omg_collector_ingest_rejected_total{reason="decode"}`] != 2 {
		t.Error("labelled series is not kept under its full name")
	}
	// _bucket lines must not leak into sums or counts.
	if before.count["omg_collector_ingest_decode_seconds"] != 20 {
		t.Errorf("count folded to %v, want 20", before.count["omg_collector_ingest_decode_seconds"])
	}
}
