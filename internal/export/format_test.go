package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/labelsvc"
	"omg/internal/store"
)

// The wire, data-directory and snapshot-file format tests. Everything
// under testdata/ was written once by an earlier commit (see
// testdata/README.md) and is never regenerated: what it pins is that this
// code reads, and where it still writes the format writes, exactly what
// that code did.

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// getOK serves GET path from h and returns the body of its 200 answer.
func getOK(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rr.Code, rr.Body)
	}
	return rr.Body.Bytes()
}

// TestFormatFixtureFrames holds the wire still: one batch in its four
// checked-in spellings — JSON at wire versions 1 and 2, a binary frame
// plain and deflated — must each decode to the checked-in batch, and
// today's encoders must reproduce each file byte for byte (the deflated
// frame through deflateFrame, the test-side stand-in for the DEFLATE
// encoder older senders ran).
func TestFormatFixtureFrames(t *testing.T) {
	var want Batch
	if err := json.Unmarshal(readFixture(t, "batch.decoded.json"), &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file    string
		codec   BatchCodec
		version int
		deflate bool // written by an older sender's DEFLATE encoder
	}{
		{"batch-v1.json", jsonCodec{}, 1, false},
		{"batch-v2.json", jsonCodec{}, 2, false},
		{"frame-plain.bin", binaryCodec{}, 2, false},
		{"frame-deflate.bin", binaryCodec{}, 2, true},
	} {
		t.Run(tc.file, func(t *testing.T) {
			frame := readFixture(t, tc.file)
			want := want
			want.Version = tc.version
			got, err := tc.codec.DecodeBatch(frame)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded\n got %+v\nwant %+v", got, want)
			}
			again, err := tc.codec.AppendBatch(nil, want)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if tc.deflate {
				again = deflateFrame(t, again)
			}
			if !bytes.Equal(again, frame) {
				t.Fatalf("today's encoder writes %d bytes, the checked-in frame is %d:\n got %q\nwant %q", len(again), len(frame), again, frame)
			}
		})
	}
}

// TestFormatFixtureCollectorDir reopens a 2-shard disk collector's data
// directory the parent commit wrote and abandoned without Close — JSON
// record bodies behind a compaction's checkpoint, marks.log with a
// duplicate in it, labels.json — and requires the same bytes from
// /v1/summary and /v1/violations/query that its writer served, and that
// the dedup marks still hold.
func TestFormatFixtureCollectorDir(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "collector")
	err := filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if fi.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	c := openCollector(t, CollectorConfig{Store: StoreDisk, DataDir: dir, Shards: 2})
	defer c.Close()
	h := c.Handler()
	if got, want := getOK(t, h, "/v1/summary"), readFixture(t, "summary.json"); !bytes.Equal(got, want) {
		t.Fatalf("/v1/summary\n got %s\nwant %s", got, want)
	}
	if got, want := getOK(t, h, "/v1/violations/query"), readFixture(t, "query.json"); !bytes.Equal(got, want) {
		t.Fatalf("/v1/violations/query\n got %s\nwant %s", got, want)
	}
	if page := metricsBody(t, c); !strings.Contains(page, "\nomg_store_recovered_records_total{format=\"json\"} ") {
		t.Fatalf("/metrics has no recovered-records series:\n%s", grepLines(page, "omg_store_"))
	}

	// edge-b's seq 3 was applied before the crash; seq 4 was not.
	post := func(seq uint64) IngestResponse {
		body, err := AppendBatchJSON(nil, Batch{Version: WireVersion, Source: "edge-b", Seq: seq,
			Violations: []assertion.Violation{{Assertion: "vehicle:appear", Stream: "cam0", SampleIndex: 1, Severity: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", IngestPath, bytes.NewReader(body)))
		var resp IngestResponse
		if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &resp) != nil {
			t.Fatalf("POST seq %d: %d %s", seq, rr.Code, rr.Body)
		}
		return resp
	}
	if resp := post(3); !resp.Duplicate || resp.Accepted != 0 {
		t.Fatalf("replayed (edge-b, 3) answered %+v, want a duplicate", resp)
	}
	if resp := post(4); resp.Duplicate || resp.Accepted != 1 {
		t.Fatalf("fresh (edge-b, 4) answered %+v, want accepted", resp)
	}
}

// TestFormatFixtureSnapshots imports the two snapshot-file shapes
// collectors wrote — version 2 with label state, and the same state at
// version 1 with none — into empty 1- and 3-shard data directories. Each,
// opened as a disk collector, must serve the /v1/violations/query bytes
// its writer's own restore served and the same /v1/summary with only
// "store":"disk" added, and a version-2 import must also revive the label
// loop byte for byte.
func TestFormatFixtureSnapshots(t *testing.T) {
	now := time.Unix(1700000000, 0)
	for _, file := range []string{"snapshot-v1.json", "snapshot-v2.json"} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%d-shard", file, shards), func(t *testing.T) {
				snap, err := ReadSnapshotFile(filepath.Join("testdata", file))
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				if err := ImportSnapshot(dir, shards, snap); err != nil {
					t.Fatal(err)
				}
				c := openCollector(t, CollectorConfig{Store: StoreDisk, DataDir: dir, Shards: shards,
					Labels: labelsvc.Config{Now: func() time.Time { return now }}})
				defer c.Close()
				h := c.Handler()
				summary := bytes.TrimSuffix(readFixture(t, fmt.Sprintf("snapshot.summary-%dshard.json", shards)), []byte("}\n"))
				for path, want := range map[string][]byte{
					"/v1/summary":          append(summary, `,"store":"disk"}`+"\n"...),
					"/v1/violations/query": readFixture(t, fmt.Sprintf("snapshot.query-%dshard.json", shards)),
				} {
					if got := getOK(t, h, path); !bytes.Equal(got, want) {
						t.Fatalf("%s\n got %s\nwant %s", path, got, want)
					}
				}
				if file != "snapshot-v2.json" {
					return
				}
				if got, want := getOK(t, h, LabelsStatsPath), readFixture(t, "snapshot-v2.labels-stats.json"); !bytes.Equal(got, want) {
					t.Fatalf("%s\n got %s\nwant %s", LabelsStatsPath, got, want)
				}
			})
		}
	}
}

// TestFormatFixtureImportV2 holds the write side of the import to what the
// parent of the rewrite wrote for `omg-server import -shards 3
// snapshot-v2.json`: every shard file byte for byte, and marks.log and the
// label files by decoded content — the marks rewrite walks a map, so its
// records' order is not part of the format.
func TestFormatFixtureImportV2(t *testing.T) {
	snap, err := ReadSnapshotFile(filepath.Join("testdata", "snapshot-v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "data")
	if err := ImportSnapshot(dir, 3, snap); err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join("testdata", "import-v2-3shard")
	wantFiles, gotFiles := treeFiles(t, fixture), treeFiles(t, dir)
	if !reflect.DeepEqual(gotFiles, wantFiles) {
		t.Fatalf("import wrote %v, want %v", gotFiles, wantFiles)
	}
	for _, name := range wantFiles {
		want, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasPrefix(name, "shard-"):
			if !bytes.Equal(got, want) {
				t.Fatalf("%s differs from the fixture:\n got %q\nwant %q", name, got, want)
			}
		case strings.HasSuffix(name, ".log"):
			if g, w := decodedFrames(t, name, got), decodedFrames(t, name, want); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s records\n got %v\nwant %v", name, g, w)
			}
		default:
			var g, w any
			if err := json.Unmarshal(got, &g); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := json.Unmarshal(want, &w); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s\n got %s\nwant %s", name, got, want)
			}
		}
	}
}

// treeFiles lists the regular files under root, relative to it and sorted.
func treeFiles(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		out = append(out, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// decodedFrames decodes a record log of JSON bodies into its records,
// sorted by their canonical encoding.
func decodedFrames(t *testing.T, name string, data []byte) []string {
	t.Helper()
	var out []string
	for len(data) > 0 {
		body, ok := store.FrameAt(data, 0)
		if !ok {
			t.Fatalf("%s: bad frame at %d bytes from the end", name, len(data))
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		canon, _ := json.Marshal(v)
		out = append(out, string(canon))
		data = data[store.FrameHeader+len(body):]
	}
	sort.Strings(out)
	return out
}
