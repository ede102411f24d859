package obs

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// expose renders one histogram's family header plus the series for every
// labelset. Called with the family header already written when the
// histogram is a vec child (labels != "").
func (h *Histogram) expose(w *strings.Builder) {
	writeFamilyHeader(w, h.name, h.help, "histogram")
	h.exposeSeries(w)
}

// exposeSeries renders the _bucket/_sum/_count series for this
// histogram's labelset without the family header.
func (h *Histogram) exposeSeries(w *strings.Builder) {
	counts, total := h.snapshot()
	sep := ""
	if h.labels != "" {
		sep = ","
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += counts[i]
		w.WriteString(h.name)
		w.WriteString("_bucket{")
		w.WriteString(h.labels)
		w.WriteString(sep)
		w.WriteString(`le="`)
		w.WriteString(formatFloat(bucketLe(i)))
		w.WriteString(`"} `)
		w.WriteString(strconv.FormatUint(cum, 10))
		w.WriteByte('\n')
	}
	w.WriteString(h.name)
	w.WriteString("_bucket{")
	w.WriteString(h.labels)
	w.WriteString(sep)
	w.WriteString(`le="+Inf"} `)
	w.WriteString(strconv.FormatUint(total, 10))
	w.WriteByte('\n')

	w.WriteString(h.name)
	w.WriteString("_sum")
	h.writeLabelBlock(w)
	w.WriteByte(' ')
	w.WriteString(formatFloat(float64(h.sum.Load()) / 1e9))
	w.WriteByte('\n')

	w.WriteString(h.name)
	w.WriteString("_count")
	h.writeLabelBlock(w)
	w.WriteByte(' ')
	w.WriteString(strconv.FormatUint(total, 10))
	w.WriteByte('\n')
}

func (h *Histogram) writeLabelBlock(w *strings.Builder) {
	if h.labels == "" {
		return
	}
	w.WriteByte('{')
	w.WriteString(h.labels)
	w.WriteByte('}')
}

// expose renders the whole family under one header, children in sorted
// label order so scrapes are deterministic.
func (v *HistogramVec) expose(w *strings.Builder) {
	writeFamilyHeader(w, v.name, v.help, "histogram")
	v.mu.RLock()
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	children := make([]*Histogram, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		children = append(children, v.m[k])
	}
	v.mu.RUnlock()
	for _, h := range children {
		h.exposeSeries(w)
	}
}

func (v *CounterVec) expose(w *strings.Builder) {
	writeFamilyHeader(w, v.name, v.help, "counter")
	for i, value := range v.values {
		fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", v.name, v.label, EscapeLabelValue(value), v.counts[i].Load())
	}
}

func (f *funcMetric) expose(w *strings.Builder) {
	writeFamilyHeader(w, f.name, f.help, f.kind)
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(formatFloat(f.fn()))
	w.WriteByte('\n')
}

// writeFamilyHeader emits the # HELP and # TYPE lines for one family.
// HELP text escapes backslash and newline per the exposition format.
func writeFamilyHeader(w *strings.Builder, name, help, kind string) {
	w.WriteString("# HELP ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(help))
	w.WriteByte('\n')
	w.WriteString("# TYPE ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(kind)
	w.WriteByte('\n')
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// WriteMetrics renders every registered metric, in registration order, in
// the Prometheus text exposition format.
func (r *Registry) WriteMetrics(w io.Writer) {
	r.mu.Lock()
	ordered := make([]metric, len(r.ordered))
	copy(ordered, r.ordered)
	r.mu.Unlock()
	var b strings.Builder
	for _, m := range ordered {
		m.expose(&b)
	}
	io.WriteString(w, b.String())
}

// WriteRuntimeMetrics renders Go runtime health series: goroutine count,
// heap occupancy and GC pause accounting.
func WriteRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var b strings.Builder
	writeFamilyHeader(&b, "go_goroutines", "Number of goroutines that currently exist.", "gauge")
	fmt.Fprintf(&b, "go_goroutines %d\n", runtime.NumGoroutine())
	writeFamilyHeader(&b, "go_gomaxprocs", "Value of GOMAXPROCS.", "gauge")
	fmt.Fprintf(&b, "go_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	writeFamilyHeader(&b, "go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge")
	fmt.Fprintf(&b, "go_memstats_heap_alloc_bytes %d\n", ms.HeapAlloc)
	writeFamilyHeader(&b, "go_memstats_heap_sys_bytes", "Bytes of heap memory obtained from the OS.", "gauge")
	fmt.Fprintf(&b, "go_memstats_heap_sys_bytes %d\n", ms.HeapSys)
	writeFamilyHeader(&b, "go_memstats_heap_objects", "Number of live heap objects.", "gauge")
	fmt.Fprintf(&b, "go_memstats_heap_objects %d\n", ms.HeapObjects)
	writeFamilyHeader(&b, "go_memstats_total_alloc_bytes_total", "Cumulative bytes allocated for heap objects.", "counter")
	fmt.Fprintf(&b, "go_memstats_total_alloc_bytes_total %d\n", ms.TotalAlloc)
	writeFamilyHeader(&b, "go_gc_cycles_total", "Completed GC cycles.", "counter")
	fmt.Fprintf(&b, "go_gc_cycles_total %d\n", ms.NumGC)
	writeFamilyHeader(&b, "go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", "counter")
	fmt.Fprintf(&b, "go_gc_pause_seconds_total %s\n", formatFloat(float64(ms.PauseTotalNs)/1e9))
	writeFamilyHeader(&b, "go_gc_last_pause_seconds", "Duration of the most recent GC stop-the-world pause.", "gauge")
	fmt.Fprintf(&b, "go_gc_last_pause_seconds %s\n", formatFloat(float64(ms.PauseNs[(ms.NumGC+255)%256])/1e9))
	io.WriteString(w, b.String())
}

// Handler returns an http.Handler serving this registry plus the Go
// runtime series as a Prometheus text /metrics page.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteMetrics(w)
		WriteRuntimeMetrics(w)
	})
}
