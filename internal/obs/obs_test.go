package obs

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestBucketIdx(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{128, 0},
		{129, 1},
		{256, 1},
		{257, 2},
		{1 << 42, histBuckets - 1},
		{1<<42 + 1, histBuckets},
		{math.MaxInt64, histBuckets},
	}
	for _, c := range cases {
		if got := bucketIdx(c.ns); got != c.want {
			t.Errorf("bucketIdx(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramRecordAndExpose(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_latency_seconds", "A test histogram.")
	h.Record(100 * time.Nanosecond) // bucket 0 (<=128ns)
	h.Record(200 * time.Nanosecond) // bucket 1 (<=256ns)
	h.Record(-time.Second)          // clamps to 0, bucket 0
	h.Record(2 * time.Hour)         // beyond the last finite bucket: +Inf only

	if got := h.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	var b strings.Builder
	r.WriteMetrics(&b)
	out := b.String()
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# HELP test_latency_seconds A test histogram.",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="1.28e-07"} 2`,
		`test_latency_seconds_bucket{le="2.56e-07"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		"test_latency_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramDisabled(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	r := NewRegistry()
	h := r.NewHistogram("test_disabled_seconds", "x.")
	h.Record(time.Second)
	if start := h.StartIf(true); !start.IsZero() {
		t.Error("StartIf should return zero time while disabled")
	}
	if got := h.Count(); got != 0 {
		t.Errorf("Count = %d while disabled, want 0", got)
	}
}

func TestHistogramStartIfDone(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_startif_seconds", "x.")
	h.Done(h.StartIf(false)) // unsampled: no-op
	if got := h.Count(); got != 0 {
		t.Fatalf("unsampled StartIf recorded: Count = %d", got)
	}
	h.Done(h.StartIf(true))
	if got := h.Count(); got != 1 {
		t.Fatalf("sampled StartIf did not record: Count = %d", got)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("test_vec_seconds", "Per-source test.", "source")
	v.With("edge-1").Record(time.Millisecond)
	v.With("edge-1").Record(2 * time.Millisecond)
	v.With(`we"ird\src`).Record(time.Second)

	var b strings.Builder
	r.WriteMetrics(&b)
	out := b.String()
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	if !strings.Contains(out, `test_vec_seconds_count{source="edge-1"} 2`) {
		t.Errorf("missing edge-1 count:\n%s", out)
	}
	if !strings.Contains(out, `test_vec_seconds_count{source="we\"ird\\src"} 1`) {
		t.Errorf("missing escaped source count:\n%s", out)
	}
	// One HELP/TYPE header for the whole family.
	if got := strings.Count(out, "# TYPE test_vec_seconds histogram"); got != 1 {
		t.Errorf("TYPE header appears %d times, want 1", got)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_records_total", "Records by format.", "format", "json", "binary")
	v.Add("binary", 7)
	v.Add("binary", 2)

	var b strings.Builder
	r.WriteMetrics(&b)
	out := b.String()
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	// Every child is on the page from zero, under one header.
	want := "# TYPE test_records_total counter\ntest_records_total{format=\"json\"} 0\ntest_records_total{format=\"binary\"} 9\n"
	if !strings.Contains(out, want) {
		t.Errorf("exposition\n%s\ndoes not contain\n%s", out, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Add to an unregistered child did not panic")
		}
	}()
	v.Add("xml", 1)
}

func TestHistogramVecOverflow(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("test_overflow_seconds", "x.", "source")
	for i := 0; i < maxVecChildren+10; i++ {
		v.With(strings.Repeat("s", i+1)).Record(time.Millisecond)
	}
	v.mu.RLock()
	n := len(v.m)
	_, hasOverflow := v.m["_overflow"]
	v.mu.RUnlock()
	if n > maxVecChildren+1 {
		t.Errorf("vec grew to %d children, cap is %d", n, maxVecChildren)
	}
	if !hasOverflow {
		t.Error("overflow child missing after cardinality blowout")
	}
	var b strings.Builder
	r.WriteMetrics(&b)
	if err := ValidateExposition([]byte(b.String())); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(64)
	hits := 0
	for i := 0; i < 640; i++ {
		if s.Next() {
			hits++
		}
	}
	if hits != 10 {
		t.Errorf("1-in-64 sampler hit %d of 640, want 10", hits)
	}
	every := NewSampler(1)
	if !every.Next() || !every.Next() {
		t.Error("NewSampler(1) must sample every call")
	}
	rounded := NewSampler(50) // rounds up to 64
	hits = 0
	for i := 0; i < 128; i++ {
		if rounded.Next() {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("NewSampler(50) hit %d of 128, want 2 (rounded to 64)", hits)
	}

	a := NewAtomicSampler(4)
	hits = 0
	for i := 0; i < 16; i++ {
		if a.Next() {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("atomic 1-in-4 sampler hit %d of 16, want 4", hits)
	}
}

func TestRegistryFuncMetricsAndHandler(t *testing.T) {
	r := NewRegistry()
	depth := 7.0
	r.NewGaugeFunc("test_queue_depth", "Queue depth.", func() float64 { return depth })
	r.NewCounterFunc("test_delivered_total", "Delivered.", func() float64 { return 42 })

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("handler exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"test_queue_depth 7",
		"test_delivered_total 42",
		"# TYPE go_goroutines gauge",
		"# TYPE go_gc_pause_seconds_total counter",
		"go_memstats_heap_alloc_bytes ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("handler output missing %q", want)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.NewHistogram("test_dup_seconds", "x.")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate registration")
		}
	}()
	r.NewHistogram("test_dup_seconds", "x.")
}

func TestDebugMuxServesPprof(t *testing.T) {
	srv := httptest.NewServer(NewDebugMux())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("pprof index status %d", res.StatusCode)
	}
	buf := make([]byte, 1<<16)
	n, _ := res.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}
