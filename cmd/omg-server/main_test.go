package main

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/export"
	"omg/internal/labelsvc"
)

// serverBin and monitorBin are built once by TestMain; empty when the go
// toolchain is unavailable (tests skip then).
var serverBin, monitorBin string

func TestMain(m *testing.M) {
	var cleanup string
	if _, err := exec.LookPath("go"); err == nil {
		dir, err := os.MkdirTemp("", "omg-server-e2e")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cleanup = dir
		for _, b := range []struct {
			bin  *string
			name string
			pkg  string
		}{
			{&serverBin, "omg-server", "."},
			{&monitorBin, "omg-monitor", "omg/cmd/omg-monitor"},
		} {
			path := filepath.Join(dir, b.name)
			if out, err := exec.Command("go", "build", "-o", path, b.pkg).CombinedOutput(); err != nil {
				os.RemoveAll(dir)
				fmt.Fprintf(os.Stderr, "building %s: %v\n%s", b.pkg, err, out)
				os.Exit(1)
			}
			*b.bin = path
		}
	}
	code := m.Run()
	if cleanup != "" {
		os.RemoveAll(cleanup)
	}
	os.Exit(code)
}

func needBinaries(t *testing.T) {
	t.Helper()
	if serverBin == "" {
		t.Skip("go toolchain unavailable; cannot build the binaries")
	}
}

// startServer launches omg-server on a free loopback port and returns its
// base URL plus the running command. The caller owns shutdown.
func startServer(t *testing.T, extraArgs ...string) (string, *exec.Cmd) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(serverBin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The startup handshake: the first stdout line names the bound port.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("omg-server printed no listening line")
	}
	m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(sc.Text())
	if m == nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("unexpected startup line %q", sc.Text())
	}
	baseURL := "http://" + m[1]
	// Drain the rest of stdout so the server never blocks on the pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	waitHealthy(t, baseURL)
	return baseURL, cmd
}

func waitHealthy(t *testing.T, baseURL string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", baseURL)
}

// stopServer delivers SIGTERM and waits for a clean exit.
func stopServer(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("omg-server exited uncleanly: %v", err)
	}
}

func getSummary(t *testing.T, baseURL string) export.SummaryResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum export.SummaryResponse
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

// recordedTotal parses omg-monitor's dashboard line.
func recordedTotal(t *testing.T, out []byte) int {
	t.Helper()
	m := regexp.MustCompile(`violations recorded: (\d+)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("summary line missing from output:\n%s", out)
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

func TestEndToEndHTTPExportDeliversExactlyOnce(t *testing.T) {
	needBinaries(t)
	diskArgs := []string{"-store", "disk", "-data-dir", filepath.Join(t.TempDir(), "data")}
	baseURL, server := startServer(t, diskArgs...)

	out, err := exec.Command(monitorBin,
		"-frames", "300", "-streams", "2",
		"-export-url", baseURL, "-export-batch", "32",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("omg-monitor failed: %v\n%s", err, out)
	}
	want := recordedTotal(t, out)
	if want == 0 {
		t.Fatal("the night-street domain should fire violations")
	}
	if !regexp.MustCompile(`exported \d+ violations in \d+ batches`).Match(out) {
		t.Fatalf("export summary line missing:\n%s", out)
	}

	// The collector's view must match the sender's recorder exactly:
	// every violation delivered exactly once.
	sum := getSummary(t, baseURL)
	if sum.TotalFired != want {
		t.Fatalf("collector reports %d violations, sender recorded %d", sum.TotalFired, want)
	}
	if sum.Sources != 1 {
		t.Fatalf("collector saw %d sources, want 1", sum.Sources)
	}

	// A second monitor run from a fresh source accumulates on top; its
	// -log tees a complete local JSONL copy beside the export.
	teePath := filepath.Join(t.TempDir(), "tee.jsonl")
	out2, err := exec.Command(monitorBin,
		"-frames", "200", "-seed", "7",
		"-export-url", baseURL, "-log", teePath,
	).CombinedOutput()
	if err != nil {
		t.Fatalf("second omg-monitor failed: %v\n%s", err, out2)
	}
	run2 := recordedTotal(t, out2)
	if data, err := os.ReadFile(teePath); err != nil {
		t.Fatalf("-log beside -export-url: %v", err)
	} else if got := strings.Count(string(data), "\n"); got != run2 {
		t.Fatalf("local tee holds %d violations, recorder counted %d", got, run2)
	}
	want += run2
	if sum = getSummary(t, baseURL); sum.TotalFired != want || sum.Sources != 2 {
		t.Fatalf("after second run: %d violations from %d sources, want %d from 2",
			sum.TotalFired, sum.Sources, want)
	}

	// A malformed ingest is rejected and counted; the counter must
	// survive the restart below (marks.log carries it).
	resp, err := http.Post(baseURL+"/v1/violations", "application/json", strings.NewReader(`{"version":42}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-version ingest = %s, want 400", resp.Status)
	}
	if sum = getSummary(t, baseURL); sum.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", sum.Rejected)
	}

	// A server restarted on the same data dir resumes where it stopped.
	stopServer(t, server)
	baseURL2, server2 := startServer(t, diskArgs...)
	defer stopServer(t, server2)
	if sum = getSummary(t, baseURL2); sum.TotalFired != want || sum.Sources != 2 {
		t.Fatalf("restarted collector reports %d violations from %d sources, want %d from 2",
			sum.TotalFired, sum.Sources, want)
	}
	if sum.Rejected != 1 {
		t.Fatalf("rejected counter reset across restart: %d, want 1", sum.Rejected)
	}
	// The Prometheus view agrees: metric continuity across restarts.
	metrics := getMetrics(t, baseURL2)
	if !strings.Contains(metrics, "omg_collector_rejected_requests_total 1") {
		t.Fatalf("metrics lost the rejected counter across restart:\n%s", metrics)
	}
}

func getMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func violation(name, stream string, i int) assertion.Violation {
	return assertion.Violation{Assertion: name, Stream: stream, SampleIndex: i, Severity: 1}
}

// postWireBatch ships one hand-rolled wire batch to a running server.
func postWireBatch(t *testing.T, baseURL string, b export.Batch) {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/violations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest returned %s", resp.Status)
	}
}

func TestEndToEndShardedTailAndRetention(t *testing.T) {
	needBinaries(t)
	baseURL, server := startServer(t,
		"-shards", "4", "-retain-per-assertion", "8", "-compact-every", "50ms")
	defer stopServer(t, server)

	// Subscribe to the live tail before anything ingests.
	req, err := http.NewRequest(http.MethodGet, baseURL+"/v1/violations/tail?assertion=tail-me", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("tail Content-Type = %q", ct)
	}
	// Wait for the subscription to register before publishing.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(getMetrics(t, baseURL), "omg_collector_tail_clients 1") {
		if time.Now().After(deadline) {
			t.Fatal("tail client never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Ingest from several sources: 30 violations of one noisy assertion
	// (which retention will cut down to <= 8) and one tail-me violation
	// the SSE subscriber must see live.
	for src := 0; src < 3; src++ {
		b := export.Batch{Version: export.WireVersion, Source: fmt.Sprintf("edge-%02d", src), Seq: 1}
		for i := 0; i < 10; i++ {
			b.Violations = append(b.Violations, violation("noisy", "cam", i))
		}
		postWireBatch(t, baseURL, b)
	}
	postWireBatch(t, baseURL, export.Batch{
		Version: export.WireVersion, Source: "edge-99", Seq: 1,
		Violations: []assertion.Violation{violation("tail-me", "cam-9", 0)},
	})

	// The tail delivers the matching violation as an SSE event.
	sc := bufio.NewScanner(resp.Body)
	gotEvent := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "data: ") && strings.Contains(line, "tail-me") {
				gotEvent <- line
				return
			}
		}
	}()
	select {
	case line := <-gotEvent:
		if !strings.Contains(line, `"assertion":"tail-me"`) {
			t.Fatalf("unexpected tail event %q", line)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tail never delivered the violation")
	}

	// Retention compacts the noisy assertion down and counts evictions.
	deadline = time.Now().Add(10 * time.Second)
	for {
		metrics := getMetrics(t, baseURL)
		m := regexp.MustCompile(`omg_collector_retention_evictions_total (\d+)`).FindStringSubmatch(metrics)
		if m != nil {
			if n, _ := strconv.Atoi(m[1]); n > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention never evicted; metrics:\n%s", metrics)
		}
		time.Sleep(25 * time.Millisecond)
	}
	sum := getSummary(t, baseURL)
	if sum.Shards != 4 {
		t.Fatalf("summary shards = %d, want 4", sum.Shards)
	}
	if sum.TotalFired != 31 {
		t.Fatalf("TotalFired = %d, want 31 (stats survive retention)", sum.TotalFired)
	}
	if sum.RetentionEvicted == 0 {
		t.Fatal("summary reports no retention evictions")
	}
}

// getRaw returns an endpoint's exact response bytes, for byte-level
// equality across a crash/restart.
func getRaw(t *testing.T, baseURL, path string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s returned %s: %s", path, resp.Status, body)
	}
	return body
}

func TestEndToEndDiskStoreCrashRecovery(t *testing.T) {
	needBinaries(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	diskArgs := []string{"-store", "disk", "-data-dir", dataDir, "-shards", "2"}
	baseURL, server := startServer(t, diskArgs...)

	for seq := 1; seq <= 4; seq++ {
		postWireBatch(t, baseURL, export.Batch{
			Version: export.WireVersion, Source: "edge-01", Seq: uint64(seq),
			Violations: []assertion.Violation{
				violation("lights", "cam-0", seq),
				violation("flicker", "cam-1", seq),
			},
		})
	}
	postWireBatch(t, baseURL, export.Batch{
		Version: export.WireVersion, Source: "edge-02", Seq: 1,
		Violations: []assertion.Violation{violation("lights", "cam-2", 0)},
	})
	// A duplicate ingest: the dedup mark must also survive the crash.
	postWireBatch(t, baseURL, export.Batch{Version: export.WireVersion, Source: "edge-01", Seq: 2})

	wantSummary := getRaw(t, baseURL, "/v1/summary")
	wantQuery := getRaw(t, baseURL, "/v1/violations/query")
	wantByAssertion := getRaw(t, baseURL, "/v1/violations/query?assertion=lights&limit=3")
	if !bytes.Contains(wantSummary, []byte(`"store":"disk"`)) {
		t.Fatalf("summary does not advertise the disk store: %s", wantSummary)
	}

	// SIGKILL: no shutdown hook, no checkpoint, no fsync — recovery must
	// come entirely from the segment files and the dedup-marks WAL.
	server.Process.Kill()
	server.Wait()

	baseURL2, server2 := startServer(t, diskArgs...)
	defer stopServer(t, server2)
	if got := getRaw(t, baseURL2, "/v1/summary"); !bytes.Equal(got, wantSummary) {
		t.Fatalf("summary changed across the crash:\n got %s\nwant %s", got, wantSummary)
	}
	if got := getRaw(t, baseURL2, "/v1/violations/query"); !bytes.Equal(got, wantQuery) {
		t.Fatalf("query changed across the crash:\n got %s\nwant %s", got, wantQuery)
	}
	if got := getRaw(t, baseURL2, "/v1/violations/query?assertion=lights&limit=3"); !bytes.Equal(got, wantByAssertion) {
		t.Fatalf("filtered query changed across the crash:\n got %s\nwant %s", got, wantByAssertion)
	}
	// Exactly-once still holds: the pre-crash duplicate stays deduplicated
	// and the next fresh sequence number applies.
	postWireBatch(t, baseURL2, export.Batch{Version: export.WireVersion, Source: "edge-01", Seq: 4})
	postWireBatch(t, baseURL2, export.Batch{
		Version: export.WireVersion, Source: "edge-01", Seq: 5,
		Violations: []assertion.Violation{violation("lights", "cam-0", 99)},
	})
	sum := getSummary(t, baseURL2)
	if sum.TotalFired != 10 {
		t.Fatalf("TotalFired after post-crash ingest = %d, want 10", sum.TotalFired)
	}
	if sum.DuplicateBatches != 2 {
		t.Fatalf("duplicate count after crash = %d, want 2", sum.DuplicateBatches)
	}
	metrics := getMetrics(t, baseURL2)
	if !regexp.MustCompile(`omg_collector_segments [1-9]`).MatchString(metrics) {
		t.Fatalf("metrics missing live segment gauge:\n%s", metrics)
	}
}

// postCodecBatch ships one hand-rolled batch over an explicit wire codec
// and reports whether the collector deduplicated it.
func postCodecBatch(t *testing.T, baseURL string, codec export.BatchCodec, b export.Batch) bool {
	t.Helper()
	body, err := codec.AppendBatch(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/violations", codec.ContentType(), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s ingest returned %s", codec.Name(), resp.Status)
	}
	var ack export.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack.Duplicate
}

// oldDeflateCodec writes binary frames the way senders that still had
// the DEFLATE encoder did: the plain frame's payload compressed at
// flate.BestSpeed, flag bit 0 set, and the length and CRC-32C fields over
// the compressed bytes. The collector must keep ingesting them.
type oldDeflateCodec struct{ export.BatchCodec }

func (c oldDeflateCodec) AppendBatch(dst []byte, b export.Batch) ([]byte, error) {
	const headerLen = 14 // magic, version, flags, length, CRC
	plain, err := c.BatchCodec.AppendBatch(nil, b)
	if err != nil {
		return dst, err
	}
	var z bytes.Buffer
	w, err := flate.NewWriter(&z, flate.BestSpeed)
	if err != nil {
		return dst, err
	}
	if _, err := w.Write(plain[headerLen:]); err != nil {
		return dst, err
	}
	if err := w.Close(); err != nil {
		return dst, err
	}
	dst = append(dst, plain[:5]...)
	dst = append(dst, 0x01) // flag bit 0: DEFLATE
	dst = binary.LittleEndian.AppendUint32(dst, uint32(z.Len()))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(z.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	return append(dst, z.Bytes()...), nil
}

// normalizeIngestStamps blanks the collector-stamped ingest_unix values,
// which are the only wall-clock-dependent bytes in a query response, so
// two separate runs over the same logical fleet compare byte-for-byte.
var ingestStampRe = regexp.MustCompile(`"ingest_unix":\d+`)

func normalizeIngestStamps(b []byte) []byte {
	return ingestStampRe.ReplaceAll(b, []byte(`"ingest_unix":0`))
}

// mixedFleetBatches is the deterministic two-edge fleet both runs of
// TestEndToEndMixedWireFleet replay: edge-json and edge-bin each ship
// three sequenced batches.
func mixedFleetBatches() map[string][]export.Batch {
	fleet := map[string][]export.Batch{}
	for _, src := range []string{"edge-json", "edge-bin"} {
		for seq := 1; seq <= 3; seq++ {
			b := export.Batch{Version: export.WireVersion, Source: src, Seq: uint64(seq)}
			for i := 0; i < 4; i++ {
				v := violation([]string{"lights", "flicker"}[i%2], fmt.Sprintf("%s-cam-%d", src, i%2), seq*10+i)
				v.Time = float64(seq) + float64(i)/30
				v.Severity = float64(1 + i%3)
				v.ObservedUnixNano = 1753800000_000000000 + int64(seq*1000+i)
				b.Violations = append(b.Violations, v)
			}
			fleet[src] = append(fleet[src], b)
		}
	}
	return fleet
}

// TestEndToEndMixedWireFleet replays the same two-edge fleet twice
// against disk-backed collectors — once all-JSON, once with edge-bin on
// the binary wire (seq 2 as the DEFLATE frame an older sender wrote) and
// its duplicates crossing codecs — and requires the summary, query and (source,seq) dedup state
// to match byte-for-byte. The mixed-wire collector is then SIGKILLed and
// must recover identically from its segment files, binary-ingested
// violations included.
func TestEndToEndMixedWireFleet(t *testing.T) {
	needBinaries(t)
	fleet := mixedFleetBatches()
	jsonCodec, err := export.Codec(export.CodecJSON)
	if err != nil {
		t.Fatal(err)
	}
	binPlain, err := export.Codec(export.CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	binDeflate := oldDeflateCodec{binPlain}

	// ingest drives one full fleet replay: every batch in seq order, a
	// same-wire duplicate of edge-bin seq 2 and a cross-wire duplicate of
	// edge-json seq 1. pick chooses the codec per (source, seq) so the
	// baseline run can force everything onto JSON.
	ingest := func(baseURL string, pick func(src string, seq int) export.BatchCodec) {
		t.Helper()
		for _, src := range []string{"edge-json", "edge-bin"} {
			for _, b := range fleet[src] {
				if dup := postCodecBatch(t, baseURL, pick(src, int(b.Seq)), b); dup {
					t.Fatalf("fresh batch (%s, %d) reported duplicate", src, b.Seq)
				}
			}
		}
		if !postCodecBatch(t, baseURL, pick("edge-bin", 2), fleet["edge-bin"][1]) {
			t.Fatal("replayed (edge-bin, 2) not deduplicated")
		}
		// The cross-wire duplicate: ingested as JSON in the baseline, as
		// binary in the mixed run — dedup must be codec-blind.
		crossCodec := pick("edge-bin", 3)
		if !postCodecBatch(t, baseURL, crossCodec, fleet["edge-json"][0]) {
			t.Fatalf("(edge-json, 1) replayed over the %s wire not deduplicated", crossCodec.Name())
		}
	}

	// Baseline: the same fleet, every batch on the JSON wire.
	baseDir := filepath.Join(t.TempDir(), "base")
	baseURL, baseServer := startServer(t, "-store", "disk", "-data-dir", baseDir, "-shards", "2")
	ingest(baseURL, func(string, int) export.BatchCodec { return jsonCodec })
	wantSummary := normalizeIngestStamps(getRaw(t, baseURL, "/v1/summary"))
	wantQuery := normalizeIngestStamps(getRaw(t, baseURL, "/v1/violations/query"))
	wantFiltered := normalizeIngestStamps(getRaw(t, baseURL, "/v1/violations/query?assertion=flicker&stream=edge-bin-cam-1&limit=5"))
	stopServer(t, baseServer)

	// Mixed fleet: edge-bin ships binary (seq 2 in an older sender's
	// DEFLATE frame), edge-json stays on JSON.
	mixDir := filepath.Join(t.TempDir(), "mixed")
	diskArgs := []string{"-store", "disk", "-data-dir", mixDir, "-shards", "2"}
	mixURL, mixServer := startServer(t, diskArgs...)
	ingest(mixURL, func(src string, seq int) export.BatchCodec {
		switch {
		case src == "edge-json":
			return jsonCodec
		case seq == 2:
			return binDeflate
		default:
			return binPlain
		}
	})
	gotSummary := getRaw(t, mixURL, "/v1/summary")
	gotQuery := getRaw(t, mixURL, "/v1/violations/query")
	gotFiltered := getRaw(t, mixURL, "/v1/violations/query?assertion=flicker&stream=edge-bin-cam-1&limit=5")
	if !bytes.Equal(normalizeIngestStamps(gotSummary), wantSummary) {
		t.Fatalf("mixed-wire summary diverges from the all-JSON fleet:\n got %s\nwant %s", gotSummary, wantSummary)
	}
	if !bytes.Equal(normalizeIngestStamps(gotQuery), wantQuery) {
		t.Fatalf("mixed-wire query diverges from the all-JSON fleet:\n got %s\nwant %s", gotQuery, wantQuery)
	}
	if !bytes.Equal(normalizeIngestStamps(gotFiltered), wantFiltered) {
		t.Fatalf("mixed-wire filtered query diverges:\n got %s\nwant %s", gotFiltered, wantFiltered)
	}
	// The decode histogram proves both codecs actually ran.
	metrics := getMetrics(t, mixURL)
	for _, m := range []string{
		`omg_collector_ingest_decode_seconds_count{codec="binary"} 5`,
		`omg_collector_ingest_decode_seconds_count{codec="json"} 3`,
	} {
		if !strings.Contains(metrics, m) {
			t.Fatalf("metrics missing %q:\n%s", m, metrics)
		}
	}

	// SIGKILL the mixed-wire collector: recovery replays the segment
	// files, so binary-ingested violations and cross-wire dedup marks must
	// come back byte-identical (no stamp normalization — same run).
	mixServer.Process.Kill()
	mixServer.Wait()
	mixURL2, mixServer2 := startServer(t, diskArgs...)
	defer stopServer(t, mixServer2)
	if got := getRaw(t, mixURL2, "/v1/summary"); !bytes.Equal(got, gotSummary) {
		t.Fatalf("summary changed across the crash:\n got %s\nwant %s", got, gotSummary)
	}
	if got := getRaw(t, mixURL2, "/v1/violations/query"); !bytes.Equal(got, gotQuery) {
		t.Fatalf("query changed across the crash:\n got %s\nwant %s", got, gotQuery)
	}
	// Exactly-once still holds post-crash, on both wires.
	if !postCodecBatch(t, mixURL2, binPlain, fleet["edge-bin"][2]) {
		t.Fatal("pre-crash (edge-bin, 3) accepted again after recovery")
	}
	if !postCodecBatch(t, mixURL2, jsonCodec, fleet["edge-json"][2]) {
		t.Fatal("pre-crash (edge-json, 3) accepted again after recovery")
	}
}

// TestEndToEndMonitorWireFleet runs real omg-monitor edges — one JSON,
// one binary — against one collector, then a binary-wire edge against a
// collector older than the binary wire (a proxy answering 415 to binary
// frames in front of omg-server), which must fall back to JSON and still
// deliver exactly once.
func TestEndToEndMonitorWireFleet(t *testing.T) {
	needBinaries(t)
	baseURL, server := startServer(t)
	defer stopServer(t, server)

	want := 0
	for _, wireArgs := range [][]string{
		{"-wire", "json"},
		{"-wire", "binary"},
	} {
		args := append([]string{"-frames", "250", "-export-url", baseURL, "-export-batch", "32"}, wireArgs...)
		out, err := exec.Command(monitorBin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("omg-monitor %v failed: %v\n%s", wireArgs, err, out)
		}
		if bytes.Contains(out, []byte("fell back")) {
			t.Fatalf("%v fell back against a binary-capable collector:\n%s", wireArgs, out)
		}
		want += recordedTotal(t, out)
	}
	sum := getSummary(t, baseURL)
	if sum.TotalFired != want || sum.Sources != 2 {
		t.Fatalf("collector holds %d violations from %d sources, want %d from 2", sum.TotalFired, sum.Sources, want)
	}
	if !strings.Contains(getMetrics(t, baseURL), `omg_collector_ingest_decode_seconds_count{codec="binary"}`) {
		t.Fatal("binary edge never hit the binary decode path")
	}

	// A JSON-only collector (as an old deployment would be): the binary
	// edge's first frame draws a 415, the sink falls back to JSON and
	// every violation still lands exactly once.
	jsonURL, jsonServer := startServer(t)
	defer stopServer(t, jsonServer)
	target, err := url.Parse(jsonURL)
	if err != nil {
		t.Fatal(err)
	}
	forward := httputil.NewSingleHostReverseProxy(target)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") == export.ContentTypeBinary {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnsupportedMediaType)
			json.NewEncoder(w).Encode(export.UnsupportedMediaTypeResponse{
				Error:                "unsupported Content-Type " + export.ContentTypeBinary,
				AcceptedContentTypes: []string{export.ContentTypeJSON},
			})
			return
		}
		forward.ServeHTTP(w, r)
	}))
	defer old.Close()
	out, err := exec.Command(monitorBin,
		"-frames", "250", "-export-url", old.URL, "-export-batch", "32",
		"-wire", "binary",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("omg-monitor against JSON-only collector failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("wire codec fell back to json")) {
		t.Fatalf("fallback line missing:\n%s", out)
	}
	if m := regexp.MustCompile(`\(\d+ retries, (\d+) dropped`).FindSubmatch(out); m == nil || string(m[1]) != "0" {
		t.Fatalf("fallback dropped violations:\n%s", out)
	}
	sum = getSummary(t, jsonURL)
	if want := recordedTotal(t, out); sum.TotalFired != want || sum.DuplicateBatches != 0 {
		t.Fatalf("after fallback: collector holds %d violations (%d duplicate batches), want %d and 0",
			sum.TotalFired, sum.DuplicateBatches, want)
	}
}

func TestEndToEndCollectorDownCountsDrops(t *testing.T) {
	needBinaries(t)
	// Nothing listens on this port: every batch must fail, and the
	// monitor must exit non-zero reporting exactly how much it lost.
	out, err := exec.Command(monitorBin,
		"-frames", "200",
		"-export-url", "http://127.0.0.1:9", "-export-deadline", "500ms",
	).CombinedOutput()
	if err == nil {
		t.Fatalf("expected non-zero exit with the collector down; output:\n%s", out)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("run error: %v", err)
	}
	m := regexp.MustCompile(`sink dropped (\d+) of (\d+) violations`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("drop accounting missing from output:\n%s", out)
	}
	dropped, _ := strconv.Atoi(string(m[1]))
	recorded, _ := strconv.Atoi(string(m[2]))
	if recorded == 0 || dropped != recorded {
		t.Fatalf("dropped %d of %d recorded violations; with the collector down every violation must be counted",
			dropped, recorded)
	}
}

func TestEndToEndBadHTTPFlags(t *testing.T) {
	needBinaries(t)
	for _, args := range [][]string{
		{"-frames", "50", "-export-url", "collector"}, // scheme-less URL
		{"-frames", "50", "-export-url", "http://x", "-export-deadline", "0s"},
		{"-frames", "50", "-wire-compress"}, // removed with the DEFLATE encoder
	} {
		if out, err := exec.Command(monitorBin, args...).CombinedOutput(); err == nil {
			t.Fatalf("%v: expected non-zero exit; output:\n%s", args, out)
		}
	}
}

// TestEndToEndBadServerFlags: each row must exit non-zero before serving,
// saying why. A -data-dir without -store=disk used to start a mem
// collector that silently lost everything at exit.
func TestEndToEndBadServerFlags(t *testing.T) {
	needBinaries(t)
	full := t.TempDir()
	if err := os.WriteFile(filepath.Join(full, "marks.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A data dir a 3-shard collector owns: reopened with fewer shards it
	// would drop shard-2 from every read.
	wide := filepath.Join(t.TempDir(), "wide")
	if out, err := exec.Command(serverBin, "import", "-data-dir", wide, "-shards", "3",
		"../../internal/export/testdata/snapshot-v2.json").CombinedOutput(); err != nil {
		t.Fatalf("import: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-addr", "127.0.0.1:0", "-data-dir", t.TempDir()}, "-data-dir requires -store=disk"},
		{[]string{"-addr", "127.0.0.1:0", "-snapshot", "x"}, "flag provided but not defined: -snapshot"},
		{[]string{"-addr", "127.0.0.1:0", "-rate-limit", "1"}, "flag provided but not defined: -rate-limit"},
		{[]string{"-addr", "127.0.0.1:0", "-wire-accept", "json"}, "flag provided but not defined: -wire-accept"},
		{[]string{"-addr", "127.0.0.1:0", "-log", "v.jsonl"}, "flag provided but not defined: -log"},
		{[]string{"-addr", "127.0.0.1:0", "-store", "disk", "-data-dir", wide, "-shards", "2"}, "-shards 3"},
		{[]string{"-addr", "127.0.0.1:0", "-compact-every", "0"}, "-compact-every must be positive"},
		{[]string{"-addr", "127.0.0.1:0", "-store", "disk", "-data-dir", t.TempDir(), "-retain", "10"}, "-retain is ignored by -store=disk"},
		{[]string{"-addr", "127.0.0.1:0", "-chaos-disk-full-after", "4096"}, "-chaos-disk-full-after requires -store=disk"},
		{[]string{"-addr", "127.0.0.1:0", "-compact-every", "1s"}, "-compact-every requires -retain-age or -retain-per-assertion"},
		{[]string{"import", "-data-dir", full, "../../internal/export/testdata/snapshot-v2.json"}, "not empty"},
	} {
		// A server that does start is killed at the deadline and fails the
		// row for the missing message.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, serverBin, tc.args...).CombinedOutput()
		cancel()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: err %v, want a non-zero exit saying %q; output:\n%s", tc.args, err, tc.want, out)
		}
	}
}

// TestEndToEndImportLegacySnapshot migrates a snapshot file an older
// server wrote into a fresh data dir with omg-server import, serves it
// with -store disk, and requires the query bytes that server served.
func TestEndToEndImportLegacySnapshot(t *testing.T) {
	needBinaries(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	if out, err := exec.Command(serverBin, "import", "-data-dir", dataDir, "-shards", "3",
		"../../internal/export/testdata/snapshot-v2.json").CombinedOutput(); err != nil {
		t.Fatalf("import: %v\n%s", err, out)
	}
	baseURL, server := startServer(t, "-store", "disk", "-data-dir", dataDir, "-shards", "3")
	defer stopServer(t, server)
	want, err := os.ReadFile("../../internal/export/testdata/snapshot.query-3shard.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := getRaw(t, baseURL, "/v1/violations/query"); !bytes.Equal(got, want) {
		t.Fatalf("imported data dir serves\n%s\nwant\n%s", got, want)
	}
}

// labelViolations builds a deterministic labeling pool for one stream:
// every sample fires "lights" (severity cycling 1..5) and even samples
// additionally fire the consistency-generated "track:flicker".
func labelViolations(stream string, n int) []assertion.Violation {
	var out []assertion.Violation
	for i := 0; i < n; i++ {
		out = append(out, assertion.Violation{Assertion: "lights", Stream: stream, SampleIndex: i, Severity: 1 + float64(i%5)})
		if i%2 == 0 {
			out = append(out, assertion.Violation{Assertion: "track:flicker", Stream: stream, SampleIndex: i, Severity: 2})
		}
	}
	return out
}

func pullLabels(t *testing.T, baseURL string, budget int, puller string) export.LabelsNextResponse {
	t.Helper()
	var out export.LabelsNextResponse
	body := getRaw(t, baseURL, fmt.Sprintf("/v1/labels/next?budget=%d&puller=%s", budget, puller))
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode labels batch: %v\n%s", err, body)
	}
	return out
}

func postFeedback(t *testing.T, baseURL string, req export.LabelsFeedbackRequest) export.LabelsFeedbackResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/labels/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback returned %s", resp.Status)
	}
	var out export.LabelsFeedbackResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func responseKeys(r export.LabelsNextResponse) []labelsvc.SampleKey {
	keys := make([]labelsvc.SampleKey, len(r.Candidates))
	for i, c := range r.Candidates {
		keys[i] = c.SampleKey
	}
	return keys
}

func batchKeys(b labelsvc.Batch) []labelsvc.SampleKey {
	keys := make([]labelsvc.SampleKey, len(b.Candidates))
	for i, c := range b.Candidates {
		keys[i] = c.SampleKey
	}
	return keys
}

// sliceSource adapts a fixed violation slice to labelsvc.ViolationSource,
// standing in for the collector when driving a reference service.
type sliceSource []assertion.Violation

func (s sliceSource) Violations() []assertion.Violation { return s }

// TestEndToEndLabelLoop drives the paper's active-learning loop over HTTP
// — two edge sources ingest, two pullers lease disjoint batches, labels
// post back — and holds the served selection to the exact trace an
// in-process labelsvc over the same pool and seed produces: the BAL round
// state behind /v1/labels/next is deterministic, not merely plausible.
func TestEndToEndLabelLoop(t *testing.T) {
	needBinaries(t)
	baseURL, server := startServer(t, "-label-seed", "42", "-label-budget", "4")
	defer stopServer(t, server)

	vs1 := labelViolations("cam-0", 10)
	vs2 := labelViolations("cam-1", 10)
	postWireBatch(t, baseURL, export.Batch{Version: export.WireVersion, Source: "edge-01", Seq: 1, Violations: vs1})
	postWireBatch(t, baseURL, export.Batch{Version: export.WireVersion, Source: "edge-02", Seq: 1, Violations: vs2})

	// The reference trace: same seed, same pool, same pull sequence.
	pool := append(append(sliceSource{}, vs1...), vs2...)
	ref, err := labelsvc.New(pool, labelsvc.Config{Seed: 42, DefaultBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref.ObserveBatch("edge-01", vs1)
	ref.ObserveBatch("edge-02", vs2)

	refNext := func(budget int, puller string) labelsvc.Batch {
		t.Helper()
		b, err := ref.Next(budget, puller)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	got1 := pullLabels(t, baseURL, 4, "alice")
	want1 := refNext(4, "alice")
	if got1.Selector != "bal" || got1.Round != want1.Round || got1.Count != 4 {
		t.Fatalf("first pull: selector=%q round=%d count=%d, want bal/%d/4",
			got1.Selector, got1.Round, got1.Count, want1.Round)
	}
	if !reflect.DeepEqual(responseKeys(got1), batchKeys(want1)) {
		t.Fatalf("served batch diverges from the bandit reference trace:\n got %+v\nwant %+v",
			responseKeys(got1), batchKeys(want1))
	}
	for _, c := range got1.Candidates {
		if len(c.Severities) == 0 || c.TopAssertion == "" || c.LeaseUntilUnix == 0 {
			t.Fatalf("candidate missing features or lease: %+v", c)
		}
	}

	got2 := pullLabels(t, baseURL, 4, "bob")
	want2 := refNext(4, "bob")
	if !reflect.DeepEqual(responseKeys(got2), batchKeys(want2)) {
		t.Fatalf("second pull diverges from the reference trace:\n got %+v\nwant %+v",
			responseKeys(got2), batchKeys(want2))
	}
	seen := map[labelsvc.SampleKey]bool{}
	for _, k := range responseKeys(got1) {
		seen[k] = true
	}
	for _, k := range responseKeys(got2) {
		if seen[k] {
			t.Fatalf("sample %+v leased to both pullers", k)
		}
	}

	// Label alice's batch; the same feedback feeds the reference.
	fb := export.LabelsFeedbackRequest{Version: export.WireVersion}
	for _, c := range got1.Candidates {
		fb.Labels = append(fb.Labels, labelsvc.Feedback{SampleKey: c.SampleKey, Label: "error", ModelCorrect: false})
	}
	res := postFeedback(t, baseURL, fb)
	if res.Applied != 4 || res.Duplicates != 0 {
		t.Fatalf("feedback applied=%d dup=%d, want 4/0", res.Applied, res.Duplicates)
	}
	if _, err := ref.ApplyFeedback(fb.Labels); err != nil {
		t.Fatal(err)
	}

	// The loop continues in lockstep: labeled and leased samples are
	// never re-served, and round three still matches the reference.
	got3 := pullLabels(t, baseURL, 4, "alice")
	want3 := refNext(4, "alice")
	if !reflect.DeepEqual(responseKeys(got3), batchKeys(want3)) {
		t.Fatalf("post-feedback pull diverges from the reference trace:\n got %+v\nwant %+v",
			responseKeys(got3), batchKeys(want3))
	}
	for _, k := range responseKeys(got3) {
		if seen[k] {
			t.Fatalf("sample %+v re-served while labeled or leased", k)
		}
	}

	var stats labelsvc.Stats
	if err := json.Unmarshal(getRaw(t, baseURL, "/v1/labels/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Labeled != 4 || stats.ErrorsFound != 4 || stats.Served != 12 || stats.Round != 3 {
		t.Fatalf("stats = %+v, want labeled=4 errors=4 served=12 round=3", stats)
	}
	metrics := getMetrics(t, baseURL)
	for _, m := range []string{
		"omg_collector_labels_served_total 12",
		"omg_collector_labels_feedback_total 4",
		"omg_collector_labels_round 3",
	} {
		if !strings.Contains(metrics, m) {
			t.Fatalf("metrics missing %q:\n%s", m, metrics)
		}
	}
}

// TestEndToEndLabelStateSurvivesKill SIGKILLs a -store=disk server mid-
// loop and requires the labels endpoints to answer byte-identically after
// restart: selector round state, leases and the labeled set all recover.
func TestEndToEndLabelStateSurvivesKill(t *testing.T) {
	needBinaries(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	diskArgs := []string{"-store", "disk", "-data-dir", dataDir, "-label-seed", "7"}
	baseURL, server := startServer(t, diskArgs...)

	postWireBatch(t, baseURL, export.Batch{Version: export.WireVersion, Source: "edge-01", Seq: 1, Violations: labelViolations("cam-0", 8)})
	postWireBatch(t, baseURL, export.Batch{Version: export.WireVersion, Source: "edge-02", Seq: 1, Violations: labelViolations("cam-1", 8)})

	b1 := pullLabels(t, baseURL, 4, "alice")
	if b1.Count != 4 {
		t.Fatalf("pre-crash pull count = %d, want 4", b1.Count)
	}
	res := postFeedback(t, baseURL, export.LabelsFeedbackRequest{Labels: []labelsvc.Feedback{
		{SampleKey: b1.Candidates[0].SampleKey, Label: "error", ModelCorrect: false},
		{SampleKey: b1.Candidates[1].SampleKey, Label: "ok", ModelCorrect: true},
	}})
	if res.Applied != 2 {
		t.Fatalf("feedback applied = %d, want 2", res.Applied)
	}
	wantStats := getRaw(t, baseURL, "/v1/labels/stats")

	// SIGKILL: no shutdown hook runs; recovery must come entirely from
	// the labels.json snapshot and the labels.log record fsync'd on every
	// mutation.
	server.Process.Kill()
	server.Wait()

	baseURL2, server2 := startServer(t, diskArgs...)
	defer stopServer(t, server2)
	if got := getRaw(t, baseURL2, "/v1/labels/stats"); !bytes.Equal(got, wantStats) {
		t.Fatalf("label stats changed across the crash:\n got %s\nwant %s", got, wantStats)
	}

	// The two unlabeled candidates from alice's batch are still leased to
	// her after the crash: a second puller must not receive them.
	stillLeased := map[labelsvc.SampleKey]bool{
		b1.Candidates[2].SampleKey: true,
		b1.Candidates[3].SampleKey: true,
	}
	b2 := pullLabels(t, baseURL2, 16, "bob")
	if b2.Count == 0 {
		t.Fatal("post-crash pull served nothing")
	}
	for _, k := range responseKeys(b2) {
		if stillLeased[k] {
			t.Fatalf("sample %+v double-leased after crash recovery", k)
		}
	}
}

// TestEndToEndMonitorReplayFeedsLabelLoop replays the seed domain through
// omg-monitor's HTTP exporter and labels the resulting pool over the
// collector's endpoints — the whole deployment loop in one pass.
func TestEndToEndMonitorReplayFeedsLabelLoop(t *testing.T) {
	needBinaries(t)
	baseURL, server := startServer(t, "-label-seed", "42")
	defer stopServer(t, server)

	out, err := exec.Command(monitorBin,
		"-frames", "200", "-export-url", baseURL, "-export-batch", "32",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("omg-monitor failed: %v\n%s", err, out)
	}
	if recordedTotal(t, out) == 0 {
		t.Fatal("the night-street domain should fire violations")
	}

	got := pullLabels(t, baseURL, 8, "labeler")
	if got.Count == 0 || got.Round != 1 {
		t.Fatalf("replayed pool served count=%d round=%d, want >0 in round 1", got.Count, got.Round)
	}
	fb := export.LabelsFeedbackRequest{Version: export.WireVersion}
	for _, c := range got.Candidates {
		if c.TopAssertion == "" || c.MaxSeverity <= 0 {
			t.Fatalf("candidate missing assembled features: %+v", c)
		}
		fb.Labels = append(fb.Labels, labelsvc.Feedback{SampleKey: c.SampleKey, ModelCorrect: false})
	}
	if res := postFeedback(t, baseURL, fb); res.Applied != got.Count {
		t.Fatalf("feedback applied = %d, want %d", res.Applied, got.Count)
	}
	var stats labelsvc.Stats
	if err := json.Unmarshal(getRaw(t, baseURL, "/v1/labels/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Labeled != got.Count || stats.ErrorsFound != int64(got.Count) {
		t.Fatalf("stats = %+v, want %d labeled errors", stats, got.Count)
	}
}

// TestEndToEndHealthzDrainsOnShutdown: with -drain, a SIGTERM'd server
// keeps its listener answering while /healthz reports 503, so load
// balancers can drain the instance before the port goes away.
func TestEndToEndHealthzDrainsOnShutdown(t *testing.T) {
	needBinaries(t)
	baseURL, server := startServer(t, "-drain", "2s")
	if err := server.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	saw503 := false
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(baseURL + "/healthz")
		if err != nil {
			break // listener already closed
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			saw503 = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !saw503 {
		t.Fatal("healthz never reported 503 during the shutdown drain")
	}
	if err := server.Wait(); err != nil {
		t.Fatalf("omg-server exited uncleanly after the drain: %v", err)
	}
}
