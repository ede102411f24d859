package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omg/internal/assertion"
	"omg/internal/obs"
)

// The on-disk format tests. testdata/json-v1 was written by the commit
// before record bodies turned binary (see testdata/README.md) and is never
// regenerated: what it pins is that this code keeps reading what that
// code wrote.

// copyFixture copies testdata/<name>, minus expect.json, into a fresh
// directory a test may write to and returns it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src, dst := filepath.Join("testdata", name), t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.Name() == "expect.json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// fixtureExpect is testdata/<name>/expect.json: what the writing commit's
// own reader recovered from the directory.
type fixtureExpect struct {
	StatsAll   map[string]assertion.Stats `json:"stats_all"`
	TotalFired int                        `json:"total_fired"`
	Compacted  int64                      `json:"compacted"`
	Query      []assertion.Violation      `json:"query"`
}

// model returns an in-memory store holding exactly the expected state, for
// assertSame.
func (e fixtureExpect) model() *assertion.MemStore {
	m := assertion.NewMemStore(0)
	m.Replace(assertion.RecorderSnapshot{Stats: e.StatsAll, Violations: e.Query, Compacted: e.Compacted})
	return m
}

func readExpect(t *testing.T, name string) fixtureExpect {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e fixtureExpect
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	return e
}

// bodyFormats counts the records in dir's segment files by the first byte
// of their bodies.
func bodyFormats(t *testing.T, dir string) (jsonBodies, binaryBodies int) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) > 0 {
			body := data[recordHeader : recordHeader+int(binary.LittleEndian.Uint32(data))]
			switch body[0] {
			case '{':
				jsonBodies++
			case assertion.ViolationRecordTag:
				binaryBodies++
			default:
				t.Fatalf("%s holds a record body starting 0x%02x", name, body[0])
			}
			data = data[recordHeader+len(body):]
		}
	}
	return jsonBodies, binaryBodies
}

// metricValue reads one series off the process-wide /metrics page.
func metricValue(t *testing.T, series string) float64 {
	t.Helper()
	var page strings.Builder
	obs.Default().WriteMetrics(&page)
	for _, line := range strings.Split(page.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatalf("series %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no series %q on the metrics page", series)
	return 0
}

// TestFormatFixtureJSONV1 walks a data directory the parent commit wrote —
// JSON record bodies, a sealed segment, an active one ending in a torn
// record, a checkpoint covering only a prefix, a compaction behind it —
// through the upgrade: it opens to exactly what its writer recovered; new
// appends land beside the old bodies and a crash replays the mixed
// segment in order; compaction rewrites every survivor as binary, and the
// answers never change.
func TestFormatFixtureJSONV1(t *testing.T) {
	dir := copyFixture(t, "json-v1")
	want := readExpect(t, "json-v1")
	const segBytes = 4 << 10 // what the fixture was written with

	jsonBefore := metricValue(t, `omg_store_recovered_records_total{format="json"}`)
	binaryBefore := metricValue(t, `omg_store_recovered_records_total{format="binary"}`)
	opensBefore := metricValue(t, "omg_store_recover_seconds_count")
	s, err := Open(Config{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("open the parent-written directory: %v", err)
	}
	model := want.model()
	assertSame(t, s, model)
	if got := metricValue(t, `omg_store_recovered_records_total{format="json"}`) - jsonBefore; got != float64(len(want.Query)) {
		t.Fatalf("recovered %v JSON records by the counter, want %d", got, len(want.Query))
	}
	if got := metricValue(t, "omg_store_recover_seconds_count") - opensBefore; got != 1 {
		t.Fatalf("omg_store_recover_seconds recorded %v opens, want 1", got)
	}

	// Ten more, then the crash idiom: Sync, abandon, reopen.
	for i := 1; i <= 10; i++ {
		v := mkv("vehicle:flicker", "cam9", 1000+i, float64(i)+0.5, 1700000100)
		if err := s.Append(v); err != nil {
			t.Fatal(err)
		}
		model.Append(v)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if j, b := bodyFormats(t, dir); j != len(want.Query) || b != 10 {
		t.Fatalf("segments hold %d JSON and %d binary bodies, want %d and 10", j, b, len(want.Query))
	}
	r, err := Open(Config{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("reopen the mixed directory: %v", err)
	}
	assertSame(t, r, model)
	if got := metricValue(t, `omg_store_recovered_records_total{format="binary"}`) - binaryBefore; got != 10 {
		t.Fatalf("recovered %v binary records by the counter, want 10", got)
	}

	// Compaction ages the JSON out.
	if _, err := r.Compact(0, 6); err != nil {
		t.Fatal(err)
	}
	model.Compact(0, 6)
	assertSame(t, r, model)
	if j, b := bodyFormats(t, dir); j != 0 || b != len(model.Query(Query{})) {
		t.Fatalf("after compaction segments hold %d JSON and %d binary bodies, want 0 and %d", j, b, len(model.Query(Query{})))
	}
	c, err := Open(Config{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer c.Close()
	assertSame(t, c, model)
}

// frame builds one record around an arbitrary body, CRC and all.
func frame(seq uint64, body []byte) []byte {
	rec := make([]byte, recordHeader, recordHeader+len(body))
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint64(rec[8:], seq)
	return append(rec, body...)
}

// A record whose length and CRC check out but whose body the store cannot
// decode is not a torn tail, even as the last record of the newest
// segment: a crash tears the frame, it does not forge a checksum. Replay
// refuses it, says where it is and what it starts with, and leaves the
// file alone — it may be a newer writer's record.
func TestSegmentUndecodableBodyIsCorruptNotTorn(t *testing.T) {
	good, err := assertion.AppendViolationRecord(nil, &assertion.Violation{Assertion: "a", Severity: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		body []byte
		want string
	}{
		"unknown tag":     {append([]byte{0x02}, good[1:]...), "unknown record tag 0x02"},
		"trailing bytes":  {append(append([]byte{}, good...), 0), "trailing"},
		"truncated body":  {good[:len(good)-1], "truncated"},
		"non-finite":      {append(append([]byte{}, good[:5]...), append([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, good[13:]...)...), "non-finite"},
		"broken JSON":     {[]byte(`{"assertion":`), "unexpected end of JSON"},
		"not JSON at all": {[]byte("hello"), "unknown record tag 0x68"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			fill(t, s, 5)
			s.Sync()
			path := filepath.Join(dir, segName(1))
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(frame(6, tc.body))
			f.Close()

			_, err = Open(Config{Dir: dir})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
			for _, part := range []string{segName(1), fmt.Sprintf("offset %d", fi.Size()), tc.want} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("error %q does not mention %q", err, part)
				}
			}
			if after, _ := os.Stat(path); after.Size() != fi.Size()+int64(recordHeader+len(tc.body)) {
				t.Fatalf("the refused record was truncated away: %d -> %d bytes", fi.Size()+int64(recordHeader+len(tc.body)), after.Size())
			}
		})
	}
}

// A violation the encoder refuses leaves the store as it was — nothing
// buffered, mirrored or counted — and the sampled append histogram still
// hears the call.
func TestSegmentAppendRefusalIsTimedAndBuffersNothing(t *testing.T) {
	obs.SetHotSampleEvery(1)
	defer obs.SetHotSampleEvery(64)
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 3)
	before, timed := s.Info(), appendHist.Count()
	if err := s.Append(mkv("bad", "cam0", 4, math.Inf(1), 1004)); err == nil {
		t.Fatal("Append took a +Inf severity")
	}
	if got := appendHist.Count() - timed; got != 1 {
		t.Fatalf("omg_store_append_seconds recorded %d of the refused append, want 1", got)
	}
	if after := s.Info(); after != before || s.TotalFired() != 3 {
		t.Fatalf("the refused append changed the store: %+v -> %+v, fired %d", before, after, s.TotalFired())
	}
}

// The mirror's capacity follows the backlog one compaction period builds,
// not the next power of two above it: under a per-assertion cap it settles
// within a quarter of the largest backlog seen and then stops moving, and
// once a burst has passed it comes back down.
func TestSegmentMirrorCapacityTracksPeak(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	cycle := func(backlog int) {
		for i := 0; i < backlog; i++ {
			n++
			if err := s.Append(mkv("a", "cam0", n, 1, int64(n))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Compact(0, 1000); err != nil {
			t.Fatal(err)
		}
	}
	// A backlog just past a power of two, where doubling would hold 2x.
	const backlog = mirrorDoubleBelow*2 + 5000
	for i := 0; i < 3; i++ {
		cycle(backlog)
	}
	settled := cap(s.vs)
	if peak := backlog + 1000; settled < peak || settled > peak+peak/4 {
		t.Fatalf("mirror capacity %d after a steady backlog peaking at %d, want within a quarter above it", settled, peak)
	}
	cycle(backlog)
	if cap(s.vs) != settled || cap(s.seqs) != settled {
		t.Fatalf("mirror capacity moved at a steady backlog: %d -> %d", settled, cap(s.vs))
	}
	cycle(backlog / 4)
	if quiet := backlog/4 + 1000; cap(s.vs) != quiet {
		t.Fatalf("mirror capacity %d after the burst passed, want the quiet period's peak %d", cap(s.vs), quiet)
	}
	if len(s.vs) != 1000 || len(s.Query(Query{Assertion: "a"})) != 1000 {
		t.Fatalf("retained %d, want the cap of 1000", len(s.vs))
	}
}

// TestAllocRegressionSegmentCompact asserts compaction allocates nothing
// per survivor: records are encoded from the mirror into one reused chunk
// buffer and the mirror is filtered in place, so a cycle's allocations
// are the plan, a few file handles and the index rebuild's posting lists
// (a growth chain per key — hundreds of allocations, not the one per
// survivor the JSON rewrite cost).
func TestAllocRegressionSegmentCompact(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	const survivors = 20000
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	cycle := func() {
		for i := 0; i < 100; i++ {
			n++
			if err := s.Append(mkv("a"+string(rune('0'+n%4)), "cam"+string(rune('0'+n%7)), n, 1, int64(n))); err != nil {
				t.Fatal(err)
			}
		}
		if evicted, err := s.Compact(0, survivors/4); err != nil || (n > survivors && evicted != 100) {
			t.Fatalf("Compact = %d, %v", evicted, err)
		}
	}
	for n < survivors+1000 { // fill, and warm the chunk buffer
		cycle()
	}
	allocs := testing.AllocsPerRun(5, cycle)
	if perSurvivor := allocs / survivors; perSurvivor > 0.05 {
		t.Fatalf("a compaction keeping %d violations allocated %.0f times (%.3f per survivor), want none per survivor", survivors, allocs, perSurvivor)
	}
}
