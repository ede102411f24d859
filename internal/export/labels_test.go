package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/consistency"
	"omg/internal/labelsvc"
)

// labelBatch builds one source's batch: every sample fires "lights",
// every even sample additionally fires the consistency-generated
// "track:flicker" (so weak labels appear on half the candidates).
func labelBatch(source, stream string, seq uint64, n int) Batch {
	b := Batch{Version: WireVersion, Source: source, Seq: seq}
	for i := 0; i < n; i++ {
		b.Violations = append(b.Violations, assertion.Violation{
			Assertion: "lights", Stream: stream, SampleIndex: i, Severity: 1 + float64(i%5),
		})
		if i%2 == 0 {
			b.Violations = append(b.Violations, assertion.Violation{
				Assertion: "track:flicker", Stream: stream, SampleIndex: i, Severity: 2,
			})
		}
	}
	return b
}

func postJSON(t *testing.T, url string, body any, wantStatus int) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %s, want %d: %s", url, resp.Status, wantStatus, out)
	}
	return out
}

func pullBatch(t *testing.T, base string, budget int, puller string) LabelsNextResponse {
	t.Helper()
	var out LabelsNextResponse
	url := fmt.Sprintf("%s%s?budget=%d&puller=%s", base, LabelsNextPath, budget, puller)
	if err := json.Unmarshal(getBody(t, url, http.StatusOK), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func respKeys(t *testing.T, r LabelsNextResponse) map[labelsvc.SampleKey]bool {
	t.Helper()
	keys := make(map[labelsvc.SampleKey]bool, len(r.Candidates))
	for _, c := range r.Candidates {
		if keys[c.SampleKey] {
			t.Fatalf("candidate %+v served twice in one batch", c.SampleKey)
		}
		keys[c.SampleKey] = true
	}
	return keys
}

func TestLabelsHTTPLoop(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	postBatch(t, srv.URL, labelBatch("edge-01", "cam-0", 1, 10))
	postBatch(t, srv.URL, labelBatch("edge-02", "cam-1", 1, 10))

	first := pullBatch(t, srv.URL, 6, "alice")
	if first.Version != WireVersion || first.Round != 1 || first.Selector != "bal" {
		t.Fatalf("first pull header = %+v", first)
	}
	if first.Count != 6 || len(first.Candidates) != 6 {
		t.Fatalf("first pull served %d/%d candidates, want 6", first.Count, len(first.Candidates))
	}
	firstKeys := respKeys(t, first)
	sawWeak, sawSource := false, false
	for _, cand := range first.Candidates {
		if cand.Source != "" {
			sawSource = true
		}
		if len(cand.WeakLabels) > 0 {
			sawWeak = true
			wl := cand.WeakLabels[0]
			if wl.Kind != consistency.AddOutput || wl.Assertion != "track:flicker" {
				t.Fatalf("weak label = %+v", wl)
			}
		}
		if cand.LeaseUntilUnix == 0 || len(cand.Severities) == 0 {
			t.Fatalf("served candidate missing lease or severities: %+v", cand)
		}
	}
	if !sawSource {
		t.Fatal("no candidate resolved its source binding")
	}
	if !sawWeak && len(first.Candidates) > 3 {
		// With per-assertion diversity and half the pool firing
		// track:flicker, a 6-wide batch must include a flicker candidate.
		t.Fatal("no candidate carried a weak label")
	}

	// A concurrent second puller gets a disjoint lease set.
	second := pullBatch(t, srv.URL, 6, "bob")
	for k := range respKeys(t, second) {
		if firstKeys[k] {
			t.Fatalf("sample %+v leased to both pullers", k)
		}
	}

	// Post labels for alice's whole batch: all real model errors.
	fb := LabelsFeedbackRequest{Version: WireVersion}
	for _, cand := range first.Candidates {
		fb.Labels = append(fb.Labels, labelsvc.Feedback{SampleKey: cand.SampleKey, Label: "bad", ModelCorrect: false})
	}
	var fbResp LabelsFeedbackResponse
	if err := json.Unmarshal(postJSON(t, srv.URL+LabelsFeedbackPath, fb, http.StatusOK), &fbResp); err != nil {
		t.Fatal(err)
	}
	if fbResp.Applied != 6 || fbResp.Duplicates != 0 {
		t.Fatalf("feedback = %+v", fbResp)
	}
	// Re-posting is an idempotent duplicate.
	if err := json.Unmarshal(postJSON(t, srv.URL+LabelsFeedbackPath, fb, http.StatusOK), &fbResp); err != nil {
		t.Fatal(err)
	}
	if fbResp.Applied != 0 || fbResp.Duplicates != 6 {
		t.Fatalf("duplicate feedback = %+v", fbResp)
	}

	var stats labelsvc.Stats
	if err := json.Unmarshal(getBody(t, srv.URL+LabelsStatsPath, http.StatusOK), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Labeled != 6 || stats.ErrorsFound != 6 || stats.Served != 12 || stats.Round != 2 {
		t.Fatalf("stats = %+v", stats)
	}

	// Labeled samples never come back; bob's unlabeled leases stay his.
	third := pullBatch(t, srv.URL, 16, "alice")
	for k := range respKeys(t, third) {
		if firstKeys[k] {
			t.Fatalf("labeled sample %+v re-served", k)
		}
		if _, ok := respKeys(t, second)[k]; ok {
			t.Fatalf("leased sample %+v re-served", k)
		}
	}
}

func TestLabelsFeedbackRejectsBadRequests(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	postJSON(t, srv.URL+LabelsFeedbackPath, LabelsFeedbackRequest{Version: 99}, http.StatusBadRequest)
	resp, err := http.Post(srv.URL+LabelsFeedbackPath, "application/json", bytes.NewReader([]byte("not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed feedback = %s", resp.Status)
	}

	if got := getBody(t, srv.URL+LabelsNextPath+"?budget=-1", http.StatusBadRequest); len(got) == 0 {
		t.Fatal("bad budget must explain itself")
	}

	// A refused label post is not an ingest request: the 400 answers the
	// caller, and the ingest rejection counters stay where they were, so
	// the by-reason series still sums to the total.
	var sum SummaryResponse
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/summary", http.StatusOK), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Rejected != 0 {
		t.Fatalf("summary rejected = %d after two refused label posts, want 0", sum.Rejected)
	}
	m := getMetrics(t, srv.URL)
	total := regexp.MustCompile(`(?m)^omg_collector_rejected_requests_total (\d+)$`).FindStringSubmatch(m)
	if total == nil {
		t.Fatalf("metrics missing omg_collector_rejected_requests_total:\n%s", m)
	}
	byReason := 0
	for _, by := range regexp.MustCompile(`(?m)^omg_collector_ingest_rejected_total\{reason="[a-z_]+"\} (\d+)$`).FindAllStringSubmatch(m, -1) {
		n, _ := strconv.Atoi(by[1])
		byReason += n
	}
	if want, _ := strconv.Atoi(total[1]); byReason != want || want != 0 {
		t.Fatalf("ingest_rejected_total sums to %d, rejected_requests_total is %s; want both 0", byReason, total[1])
	}
}

func TestTailWeakLabelEvents(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	sc, closeTail := tailConn(t, srv.URL+TailPath)
	defer closeTail()
	waitForTailClients(t, c, 1)

	postBatch(t, srv.URL, Batch{Version: WireVersion, Source: "edge", Seq: 1, Violations: []assertion.Violation{
		{Assertion: "track:flicker", Stream: "cam-0", SampleIndex: 4, Severity: 2},
	}})

	event, _ := nextEvent(t, sc)
	if event != "violation" {
		t.Fatalf("first event = %q, want violation", event)
	}
	event, data := nextEvent(t, sc)
	if event != "weaklabel" {
		t.Fatalf("second event = %q (%s), want weaklabel", event, data)
	}
	var ev WeakLabelEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("weaklabel payload: %v (%s)", err, data)
	}
	want := WeakLabelEvent{Kind: consistency.AddOutput, Assertion: "track:flicker", Stream: "cam-0", Sample: 4, Severity: 2}
	if ev != want {
		t.Fatalf("weaklabel = %+v, want %+v", ev, want)
	}
}

func TestHealthzTurns503OnceShutdownBegins(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	getBody(t, srv.URL+"/healthz", http.StatusOK)
	c.Quiesce()
	// The listener is still up mid-drain — exactly when a balancer must
	// be told to stop routing here.
	if got := string(getBody(t, srv.URL+"/healthz", http.StatusServiceUnavailable)); got == "" {
		t.Fatal("draining healthz must explain itself")
	}
	c.Close()
	getBody(t, srv.URL+"/healthz", http.StatusServiceUnavailable)
}

// leakyStore hands out its live retained slice for the whole-log query —
// the worst case the query path must tolerate without corrupting the log.
type leakyStore struct {
	assertion.ViolationStore
	mu sync.Mutex
	vs []assertion.Violation
}

func (s *leakyStore) Append(v assertion.Violation) error {
	s.mu.Lock()
	s.vs = append(s.vs, v)
	s.mu.Unlock()
	return s.ViolationStore.Append(v)
}

func (s *leakyStore) Query(q assertion.StoreQuery) []assertion.Violation {
	if q == (assertion.StoreQuery{}) {
		return s.vs
	}
	return s.ViolationStore.Query(q)
}

func TestQueryStreamFilterDoesNotCorruptRetainedLog(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	c.shards[0] = &leakyStore{ViolationStore: c.shards[0]}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	b := Batch{Version: WireVersion, Source: "edge", Seq: 1}
	for i := 0; i < 6; i++ {
		stream := "cam-0"
		if i%2 == 1 {
			stream = "cam-1"
		}
		b.Violations = append(b.Violations, assertion.Violation{
			Assertion: "a", Stream: stream, SampleIndex: i, Severity: 1,
		})
	}
	postBatch(t, srv.URL, b)

	before := getBody(t, srv.URL+"/v1/violations/query", http.StatusOK)
	var filtered QueryResponse
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/violations/query?stream=cam-1", http.StatusOK), &filtered); err != nil {
		t.Fatal(err)
	}
	if filtered.Count != 3 {
		t.Fatalf("stream filter kept %d, want 3", filtered.Count)
	}
	for _, v := range filtered.Violations {
		if v.Stream != "cam-1" {
			t.Fatalf("stream filter leaked %+v", v)
		}
	}
	// The regression: the old in-place compaction rewrote the store's
	// retained slice, so the unfiltered re-query came back mangled.
	after := getBody(t, srv.URL+"/v1/violations/query", http.StatusOK)
	if !bytes.Equal(before, after) {
		t.Fatalf("stream-filtered query corrupted the retained log:\nbefore %s\nafter  %s", before, after)
	}
}

func TestSnapshotCarriesLabelState(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	c.Ingest(labelBatch("edge-01", "cam-0", 1, 8))
	if _, err := c.Labels().Next(4, "alice"); err != nil {
		t.Fatal(err)
	}

	snap := legacySnapshot(c)
	if snap.Labels == nil || snap.Labels.Round != 1 || len(snap.Labels.Leases) != 4 {
		t.Fatalf("snapshot labels = %+v", snap.Labels)
	}

	// The label state round-trips through the snapshot file unchanged.
	path := filepath.Join(t.TempDir(), "snap.json")
	writeSnapshotFile(t, path, snap)
	out, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Labels == nil || !reflect.DeepEqual(*out.Labels, *snap.Labels) {
		t.Fatalf("label state mangled by snapshot file:\n%+v\n%+v", out.Labels, snap.Labels)
	}

	// A data dir imported from the file continues the same loop.
	got := importInto(t, out, 1).Labels().StateSnapshot()
	if !reflect.DeepEqual(got, *snap.Labels) {
		t.Fatalf("restored label state diverged:\n%+v\n%+v", got, *snap.Labels)
	}
}

func TestDiskCollectorLabelLoopSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := CollectorConfig{Store: StoreDisk, DataDir: dir, Labels: labelsvc.Config{Seed: 7}}
	c1, err := OpenCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1.Ingest(labelBatch("edge-01", "cam-0", 1, 10))
	c1.Ingest(labelBatch("edge-02", "cam-1", 1, 10))
	b1, err := c1.Labels().Next(4, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Labels().ApplyFeedback([]labelsvc.Feedback{
		{SampleKey: b1.Candidates[0].SampleKey, Label: "bad", ModelCorrect: false},
		{SampleKey: b1.Candidates[1].SampleKey, Label: "fine", ModelCorrect: true},
	}); err != nil {
		t.Fatal(err)
	}
	want := c1.Labels().StateSnapshot()
	wantStats, err := json.Marshal(c1.Labels().Stats())
	if err != nil {
		t.Fatal(err)
	}
	raw1, err := os.ReadFile(filepath.Join(dir, labelsName))
	if err != nil {
		t.Fatal(err)
	}

	// kill -9: c1 is abandoned without Close. Every mutation persisted
	// itself, so a reopen over the same DataDir revives the exact loop.
	c2, err := OpenCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got := c2.Labels().StateSnapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("label state after restart diverged:\n%+v\n%+v", got, want)
	}
	gotStats, err := json.Marshal(c2.Labels().Stats())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotStats, wantStats) {
		t.Fatalf("stats after restart:\n%s\n%s", gotStats, wantStats)
	}
	raw2, err := os.ReadFile(filepath.Join(dir, labelsName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("reopening rewrote the label state file")
	}

	// The loop continues: unlabeled leases from before the crash are
	// still held, labeled samples never come back.
	b2, err := c2.Labels().Next(16, "bob")
	if err != nil {
		t.Fatal(err)
	}
	leased := make(map[labelsvc.SampleKey]bool)
	for _, cand := range b1.Candidates {
		leased[cand.SampleKey] = true
	}
	for _, cand := range b2.Candidates {
		if leased[cand.SampleKey] {
			t.Fatalf("sample %+v re-served across restart", cand.SampleKey)
		}
	}
}

func TestOpenCollectorRejectsUnknownSelector(t *testing.T) {
	if _, err := OpenCollector(CollectorConfig{Labels: labelsvc.Config{Selector: "thompson"}}); err == nil {
		t.Fatal("unknown selector must fail OpenCollector")
	}
	if _, err := OpenCollector(CollectorConfig{Store: StoreDisk, DataDir: t.TempDir(), Labels: labelsvc.Config{Selector: "thompson"}}); err == nil {
		t.Fatal("unknown selector must fail the disk backend too")
	}
}

// TestParkedPullDoesNotBlockIngest: a label pull holds the loop's lock
// for its whole selection — and a slow one (a large pool, an fsync of the
// state file) for a long time. Ingest must not queue behind it: the batch
// is acknowledged and counted while the pull is still parked, and the
// pull after it sees the batch's samples.
func TestParkedPullDoesNotBlockIngest(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	var armed atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	c := openCollector(t, CollectorConfig{Labels: labelsvc.Config{
		// Next reads the clock under the loop's lock: parking the clock
		// parks the pull exactly where a slow selection would sit.
		Now: func() time.Time {
			if armed.CompareAndSwap(true, false) {
				close(parked)
				<-release
			}
			return t0
		},
	}})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// The first batch binds the stream to its source — the one thing an
	// ingest still takes the loop's lock for — and the first pull seeds
	// the index.
	postJSON(t, srv.URL+IngestPath, labelBatch("edge-1", "cam-0", 1, 20), http.StatusOK)
	pullBatch(t, srv.URL, 4, "warm")

	armed.Store(true)
	pulled := make(chan int, 1) // the parked pull's status
	go func() {
		resp, err := http.Get(srv.URL + LabelsNextPath + "?budget=4&puller=slow")
		if err != nil {
			t.Error(err)
			pulled <- 0
			return
		}
		resp.Body.Close()
		pulled <- resp.StatusCode
	}()
	<-parked

	fresh := Batch{Version: WireVersion, Source: "edge-1", Seq: 2}
	for i := 100; i < 110; i++ {
		fresh.Violations = append(fresh.Violations, assertion.Violation{
			Assertion: "lights", Stream: "cam-0", SampleIndex: i, Severity: 9,
		})
	}
	ingested := make(chan int, 1)
	go func() {
		n, _ := c.Ingest(fresh)
		ingested <- n
	}()
	select {
	case n := <-ingested:
		if n != len(fresh.Violations) {
			t.Fatalf("ingest beside a parked pull accepted %d of %d", n, len(fresh.Violations))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ingest waited on a parked label pull")
	}
	var sum SummaryResponse
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/summary", http.StatusOK), &sum); err != nil {
		t.Fatal(err)
	}
	if want := 30 + len(fresh.Violations); sum.TotalFired != want || sum.Batches != 2 {
		t.Fatalf("summary beside a parked pull = %+v, want %d violations in 2 batches", sum, want)
	}

	close(release)
	if status := <-pulled; status != http.StatusOK {
		t.Fatalf("the parked pull answered %d once released", status)
	}
	next := pullBatch(t, srv.URL, 256, "after")
	seen := 0
	for _, cand := range next.Candidates {
		if cand.Sample >= 100 {
			seen++
		}
	}
	if seen != len(fresh.Violations) {
		t.Fatalf("the pull after the parked one sees %d of the %d samples ingested beside it", seen, len(fresh.Violations))
	}
}

// parkingStore parks the first Sync it is handed — inside apply, after
// the batch's Append and before its ObserveBatch.
type parkingStore struct {
	assertion.ViolationStore
	once            sync.Once
	parked, release chan struct{}
}

func (s *parkingStore) Sync() error {
	s.once.Do(func() {
		close(s.parked)
		<-s.release
	})
	return s.ViolationStore.Sync()
}

// TestSeedWaitsForInFlightApply pins the seed's atomicity: a first label
// call that arrives while a batch is between its Append and its
// ObserveBatch must wait for that apply to finish. Otherwise the seed
// reads the violation from the store AND the apply queues it as an add,
// and when retention later evicts it the index keeps a phantom candidate
// the retained log no longer has.
func TestSeedWaitsForInFlightApply(t *testing.T) {
	c := openCollector(t, CollectorConfig{RetainPerAssertion: 1, CompactEvery: time.Hour})
	defer c.Close()
	park := &parkingStore{ViolationStore: c.shards[0], parked: make(chan struct{}), release: make(chan struct{})}
	c.shards[0] = park

	one := func(seq uint64, sample int) Batch {
		return Batch{Version: WireVersion, Source: "edge-1", Seq: seq, Violations: []assertion.Violation{
			{Assertion: "lights", Stream: "cam-0", SampleIndex: sample, Severity: 1},
		}}
	}
	applied := make(chan struct{})
	go func() {
		c.Ingest(one(1, 1))
		close(applied)
	}()
	<-park.parked

	seeded := make(chan struct{})
	go func() {
		c.Labels().Pool()
		close(seeded)
	}()
	select {
	case <-seeded:
		t.Fatal("the seed did not wait for the apply in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(park.release)
	<-applied
	<-seeded

	c.Ingest(one(2, 2))
	if evicted := c.CompactNow(); evicted != 1 {
		t.Fatalf("compaction evicted %d, want 1", evicted)
	}
	pool := c.Labels().Pool()
	if len(pool) != 1 || pool[0].Sample != 2 {
		t.Fatalf("pool after the first sample was evicted = %+v, want only sample 2", pool)
	}
}

// TestLabelStateWritesMetric: /metrics counts a disk collector's label
// state writes by kind, and once a snapshot exists a pull and its
// feedback append two log records and write no snapshot.
func TestLabelStateWritesMetric(t *testing.T) {
	c := openCollector(t, CollectorConfig{Store: StoreDisk, DataDir: t.TempDir()})
	defer c.Close()
	c.Ingest(labelBatch("edge-01", "cam-0", 1, 20))
	old := labelsvc.State{Version: labelsvc.StateVersion}
	for i := 0; i < 200; i++ {
		old.Labeled = append(old.Labeled, labelsvc.LabeledSample{SampleKey: labelsvc.SampleKey{Stream: "old", Sample: i}, Label: "x"})
	}
	c.Labels().RestoreState(old)
	writes := func() (delta, snapshot int) {
		return metricValue(t, c, `omg_collector_labels_state_writes_total{kind="delta"}`),
			metricValue(t, c, `omg_collector_labels_state_writes_total{kind="snapshot"}`)
	}
	d0, s0 := writes()
	if s0 == 0 {
		t.Fatal("no snapshot counted after RestoreState")
	}
	b, err := c.Labels().Next(4, "p")
	if err != nil || len(b.Candidates) != 4 {
		t.Fatalf("pull: %v %+v", err, b)
	}
	var fb []labelsvc.Feedback
	for _, cand := range b.Candidates {
		fb = append(fb, labelsvc.Feedback{SampleKey: cand.SampleKey, Label: "x"})
	}
	if _, err := c.Labels().ApplyFeedback(fb); err != nil {
		t.Fatal(err)
	}
	if d1, s1 := writes(); d1-d0 != 2 || s1 != s0 {
		t.Fatalf("a pull and its feedback: %d deltas and %d snapshots, want 2 and 0", d1-d0, s1-s0)
	}
}
