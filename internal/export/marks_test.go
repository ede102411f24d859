package export

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"omg/internal/store"
)

// marksState is what marks.log carries: every source's applied mark and
// the three persisted request counters.
type marksState struct {
	Marks                  map[string]uint64
	Batches, Dups, Rejects int64
}

func marksOf(c *Collector) marksState {
	st := marksState{Marks: map[string]uint64{}, Batches: c.batches.Load(), Dups: c.duplicates.Load(), Rejects: c.rejected.Load()}
	c.mu.Lock()
	defer c.mu.Unlock()
	for src, s := range c.sources {
		if seq := s.lastSeq.Load(); seq > 0 {
			st.Marks[src] = seq
		}
	}
	return st
}

// serveIngest posts b to the collector's handler as JSON, with the
// identity headers when headers is set.
func serveIngest(t *testing.T, c *Collector, b Batch, contentType string, headers bool) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, IngestPath, jsonBody(t, b))
	req.Header.Set("Content-Type", contentType)
	if headers {
		req.Header.Set(SourceHeader, b.Source)
		req.Header.Set(SeqHeader, strconv.FormatUint(b.Seq, 10))
	}
	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, req)
	return rr
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// A mark a crash tore is cut off at the next open, so the mark appended
// after it is read back by the open after that, and a retry of its batch
// is a duplicate rather than applied twice.
func TestTornMarkDoesNotSwallowTheNext(t *testing.T) {
	dir := t.TempDir()
	c := diskCollector(t, dir, 1)
	c.Ingest(mkBatch("a", 1, 1))
	c.Close()
	f, err := os.OpenFile(filepath.Join(dir, marksName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte(`{"src":"a","se`))
	f.Close()

	c = diskCollector(t, dir, 1)
	if n, dup := c.Ingest(mkBatch("b", 1, 1)); n != 1 || dup {
		t.Fatalf("(b, 1) after the torn mark: accepted %d dup %v", n, dup)
	}
	c.Close()

	c = diskCollector(t, dir, 1)
	defer c.Close()
	for _, src := range []string{"a", "b"} {
		if n, dup := c.Ingest(mkBatch(src, 1, 1)); n != 0 || !dup {
			t.Fatalf("retried (%s, 1): accepted %d dup %v, want a duplicate", src, n, dup)
		}
	}
}

// A marks.log that cannot be written latches the collector degraded: the
// batch whose mark failed is still acknowledged (its violations are
// applied), and the next one is rejected store_degraded.
func TestMarksWriteFailureDegrades(t *testing.T) {
	c := diskCollector(t, t.TempDir(), 1)
	defer c.Close()
	c.marks.Close()
	if rr := serveIngest(t, c, mkBatch("s", 1, 1), "application/json", false); rr.Code != http.StatusOK {
		t.Fatalf("batch whose mark failed: %d %s, want it acknowledged", rr.Code, rr.Body)
	}
	if err := c.DegradedCause(); err == nil || !strings.Contains(err.Error(), marksName) {
		t.Fatalf("DegradedCause = %v, want the marks.log failure", err)
	}
	if rr := serveIngest(t, c, mkBatch("s", 2, 1), "application/json", false); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch after the failure: %d %s, want 503", rr.Code, rr.Body)
	}
	if got := c.rejectedBy[rejectStoreDegraded].Load(); got != 1 {
		t.Fatalf("store_degraded rejections = %d, want 1", got)
	}
}

// Past maxMarksBytes the marks log is rewritten as one record per source,
// and a reopen reads the same marks and counters from the rewrite, with or
// without the temp file of a rewrite a crash interrupted beside it.
func TestMarksLogCompacts(t *testing.T) {
	dir := t.TempDir()
	c := diskCollector(t, dir, 2)
	srcs := []string{"edge-a", "edge-b", "edge-c", "edge-d"}
	for seq := uint64(1); seq <= 3; seq++ {
		for _, src := range srcs {
			c.Ingest(mkBatch(src, seq, 1))
		}
	}
	serveIngest(t, c, mkBatch("edge-a", 4, 1), "text/plain", false) // a rejection
	path := filepath.Join(dir, marksName)
	size, written, shrank := fileSize(t, path), int64(0), false
	for i := 0; written <= 2*maxMarksBytes; i++ {
		c.Ingest(mkBatch(srcs[i%len(srcs)], 2, 1)) // a duplicate, one more mark
		now := fileSize(t, path)
		if now < size {
			shrank = true
		} else {
			written += now - size
		}
		size = now
	}
	if !shrank || size >= maxMarksBytes {
		t.Fatalf("marks.log took %d bytes of marks and is %d bytes (shrank %v), want it rewritten below %d", written, size, shrank, maxMarksBytes)
	}
	want := marksOf(c)
	if want.Rejects != 1 || len(want.Marks) != len(srcs) || want.Dups == 0 {
		t.Fatalf("the script left %+v", want)
	}
	c.Close()

	r := diskCollector(t, dir, 2)
	if got := marksOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened over the rewrite: %+v, want %+v", got, want)
	}
	r.Close()

	// A rewrite the crash stopped before its rename: its temp file holds a
	// whole log that must not be read, and is swept.
	stray := filepath.Join(dir, ".marks-1.tmp")
	body := []byte(`{"src":"edge-z","seq":9,"batches":999}`)
	if err := os.WriteFile(stray, store.AppendFrame(nil, body), 0o644); err != nil {
		t.Fatal(err)
	}
	r = diskCollector(t, dir, 2)
	defer r.Close()
	if got := marksOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened beside a rewrite's temp file: %+v, want %+v", got, want)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("the rewrite's temp file is still there: %v", err)
	}
}

// TestMarksLogTruncatedAtEveryOffset cuts a scripted marks.log at every
// byte offset — every point a crash can stop an append at — and revives
// each cut: the log is cut back to its last whole record, and the marks
// and counters are the script's after that record.
func TestMarksLogTruncatedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	c := diskCollector(t, dir, 1)
	path := filepath.Join(dir, marksName)
	steps := []func(){
		func() { c.Ingest(mkBatch("edge-a", 1, 2)) },
		func() { c.Ingest(mkBatch("edge-b", 1, 1)) },
		func() { c.Ingest(mkBatch("edge-a", 2, 1)) },
		func() { c.Ingest(mkBatch("edge-a", 1, 1)) },                                               // a duplicate
		func() { c.Ingest(Batch{Version: WireVersion, Violations: mkBatch("", 0, 1).Violations}) }, // no identity
		func() { serveIngest(t, c, mkBatch("edge-c", 1, 1), "text/plain", false) },                 // rejected
		func() { c.Ingest(mkBatch("edge-c", 5, 1)) },
		func() { serveIngest(t, c, mkBatch("edge-b", 1, 1), "application/json", true) }, // a headered retry
	}
	ends := []int64{0}
	states := []marksState{marksOf(c)}
	for i, step := range steps {
		step()
		end := fileSize(t, path)
		if end <= ends[len(ends)-1] {
			t.Fatalf("step %d wrote no mark", i)
		}
		ends, states = append(ends, end), append(states, marksOf(c))
	}
	if err := c.DegradedCause(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	data, err := os.ReadFile(path)
	if err != nil || int64(len(data)) != ends[len(ends)-1] {
		t.Fatalf("marks.log after Close: %d bytes, %v; want %d", len(data), err, ends[len(ends)-1])
	}

	revDir := filepath.Join(t.TempDir(), "rev")
	for off := int64(0); off <= int64(len(data)); off++ {
		whole := 0
		for whole+1 < len(ends) && ends[whole+1] <= off {
			whole++
		}
		os.RemoveAll(revDir)
		if err := os.MkdirAll(revDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(revDir, marksName), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		r := diskCollector(t, revDir, 1)
		if got := fileSize(t, filepath.Join(revDir, marksName)); got != ends[whole] {
			t.Fatalf("cut at %d: marks.log is %d bytes after open, want its torn tail cut to %d", off, got, ends[whole])
		}
		if got := marksOf(r); !reflect.DeepEqual(got, states[whole]) {
			t.Fatalf("cut at %d (%d whole records): %+v, want %+v", off, whole, got, states[whole])
		}
		r.Close()
	}
}
