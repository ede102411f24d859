package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/export"
	"omg/internal/obs"
)

// monitorBin is the omg-monitor binary built once by TestMain; empty when
// the go toolchain is unavailable (tests skip then).
var monitorBin string

func TestMain(m *testing.M) {
	var cleanup string
	if _, err := exec.LookPath("go"); err == nil {
		dir, err := os.MkdirTemp("", "omg-monitor-e2e")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cleanup = dir
		bin := filepath.Join(dir, "omg-monitor")
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			fmt.Fprintf(os.Stderr, "building omg-monitor: %v\n%s", err, out)
			os.Exit(1)
		}
		monitorBin = bin
	}
	code := m.Run()
	if cleanup != "" {
		os.RemoveAll(cleanup)
	}
	os.Exit(code)
}

func needBinary(t *testing.T) string {
	t.Helper()
	if monitorBin == "" {
		t.Skip("go toolchain unavailable; cannot build omg-monitor")
	}
	return monitorBin
}

// readViolations parses a JSONL violation log.
func readViolations(t *testing.T, path string) []assertion.Violation {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	defer f.Close()
	var out []assertion.Violation
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var v assertion.Violation
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEndToEndJSONLSink(t *testing.T) {
	bin := needBinary(t)
	logPath := filepath.Join(t.TempDir(), "violations.jsonl")
	out, err := exec.Command(bin,
		"-frames", "300", "-streams", "3", "-log", logPath,
	).CombinedOutput()
	if err != nil {
		t.Fatalf("omg-monitor failed: %v\n%s", err, out)
	}

	vs := readViolations(t, logPath)
	if len(vs) == 0 {
		t.Fatal("no violations logged; the night-street domain should fire")
	}
	// Every logged violation must carry one of the driven stream keys.
	valid := map[string]bool{"cam-00": true, "cam-01": true, "cam-02": true}
	seen := map[string]bool{}
	for _, v := range vs {
		if !valid[v.Stream] {
			t.Fatalf("violation carries unknown stream key %q", v.Stream)
		}
		seen[v.Stream] = true
		if v.Assertion == "" || v.Severity <= 0 {
			t.Fatalf("malformed violation: %+v", v)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no stream keys in log")
	}
	// The dashboard total and the durable log must agree.
	m := regexp.MustCompile(`violations recorded: (\d+)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("summary line missing from output:\n%s", out)
	}
	total, _ := strconv.Atoi(string(m[1]))
	if total != len(vs) {
		t.Fatalf("summary reports %d violations, log holds %d", total, len(vs))
	}
}

func TestEndToEndUnwritableSinkPath(t *testing.T) {
	bin := needBinary(t)
	out, err := exec.Command(bin,
		"-frames", "50", "-log", filepath.Join(t.TempDir(), "no-such-dir", "v.jsonl"),
	).CombinedOutput()
	if err == nil {
		t.Fatalf("expected non-zero exit for unwritable sink path; output:\n%s", out)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("run error: %v", err)
	}
}

func TestEndToEndBadSinkFlags(t *testing.T) {
	bin := needBinary(t)
	logPath := filepath.Join(t.TempDir(), "v.jsonl")
	// The removed backend selectors exit 2 before running, and an
	// exporter knob without an exporter exits 1 naming the flag: none may
	// run silently without the sink the caller asked for. A count below
	// one exits 1 naming the flag, rather than running some default.
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-frames", "50", "-log", logPath, "-sink", "jsonl"}, 2, "flag provided but not defined: -sink"},
		{[]string{"-frames", "50", "-sink", "http", "-export-url", "http://127.0.0.1:1"}, 2, "flag provided but not defined: -sink"},
		{[]string{"-frames", "50", "-log", logPath, "-rotate-bytes", "2048"}, 2, "flag provided but not defined: -rotate-bytes"},
		{[]string{"-frames", "50", "-wire", "bogus"}, 1, "-wire requires -export-url"},
		{[]string{"-frames", "50", "-log", logPath, "-export-batch", "32"}, 1, "-export-batch requires -export-url"},
		{[]string{"-frames", "50", "-export-deadline", "1s"}, 1, "-export-deadline requires -export-url"},
		{[]string{"-frames", "0"}, 1, "-frames must be >= 1"},
		{[]string{"-frames", "-5"}, 1, "-frames must be >= 1"},
		{[]string{"-frames", "50", "-streams", "0"}, 1, "-streams must be >= 1"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != tc.code || !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: err %v, want exit %d saying %q; output:\n%s", tc.args, err, tc.code, tc.want, out)
		}
	}
}

// TestEndToEndSinksFromFlags runs each sink configuration the flags can
// ask for against an in-process collector: -log alone writes the file,
// -export-url alone exports, both tee the export into the file, and
// neither writes nothing and exports nothing. Wherever a sink runs it
// holds every violation the monitor recorded.
func TestEndToEndSinksFromFlags(t *testing.T) {
	bin := needBinary(t)
	for _, tc := range []struct {
		name          string
		log, exported bool
	}{
		{"none", false, false},
		{"log", true, false},
		{"export", false, true},
		{"both", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := export.OpenCollector(export.CollectorConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()

			dir := t.TempDir()
			logPath := filepath.Join(dir, "violations.jsonl")
			args := []string{"-frames", "200", "-streams", "2"}
			if tc.log {
				args = append(args, "-log", logPath)
			}
			if tc.exported {
				args = append(args, "-export-url", srv.URL)
			}
			out, err := exec.Command(bin, args...).CombinedOutput()
			if err != nil {
				t.Fatalf("omg-monitor %v failed: %v\n%s", args, err, out)
			}
			m := regexp.MustCompile(`violations recorded: (\d+)`).FindSubmatch(out)
			if m == nil {
				t.Fatalf("summary line missing from output:\n%s", out)
			}
			recorded, _ := strconv.Atoi(string(m[1]))
			if recorded == 0 {
				t.Fatal("the night-street domain should fire violations")
			}

			if tc.log {
				if got := len(readViolations(t, logPath)); got != recorded {
					t.Fatalf("log holds %d violations, monitor recorded %d", got, recorded)
				}
			} else if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
				t.Fatalf("no -log, yet the run left %d files (%v)", len(entries), err)
			}
			want := 0
			if tc.exported {
				want = recorded
			}
			if got := c.TotalFired(); got != want {
				t.Fatalf("collector holds %d violations, want %d", got, want)
			}
			if exportLine := strings.Contains(string(out), "exported "); exportLine != tc.exported {
				t.Fatalf("export summary line present = %v, want %v:\n%s", exportLine, tc.exported, out)
			}
		})
	}
}

// TestEndToEndEdgeMetricsAndDebug scrapes a live omg-monitor's
// -metrics-addr and -debug-addr listeners while its HTTP export is held
// mid-flight by a gated collector, so the edge telemetry is read at a
// deterministic moment instead of racing the run to completion.
func TestEndToEndEdgeMetricsAndDebug(t *testing.T) {
	bin := needBinary(t)

	// A stand-in collector that accepts every batch but blocks the first
	// delivery until the test has finished scraping — keeping the monitor
	// alive (it cannot drain its exporter) without sleeps.
	gate := make(chan struct{})
	var gateOnce sync.Once
	firstBatch := make(chan struct{})
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		gateOnce.Do(func() { close(firstBatch) })
		<-gate
		w.WriteHeader(http.StatusOK)
	}))
	defer collector.Close()

	cmd := exec.Command(bin,
		"-frames", "300", "-streams", "2",
		"-export-url", collector.URL,
		"-export-deadline", "60s", // the held first batch must outlast the scrape
		"-metrics-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The handshake lines name the bound ports (-metrics-addr/-debug-addr
	// ended in :0); everything after them is the exit summary, collected
	// for the final assertions.
	sc := bufio.NewScanner(stdout)
	metricsRe := regexp.MustCompile(`omg-monitor metrics on (http://\S+/metrics)`)
	debugRe := regexp.MustCompile(`omg-monitor debug on (http://\S+/debug/pprof/)`)
	var metricsURL, debugURL string
	var tail strings.Builder
	tailDone := make(chan struct{})
	for sc.Scan() {
		line := sc.Text()
		if m := metricsRe.FindStringSubmatch(line); m != nil {
			metricsURL = m[1]
		}
		if m := debugRe.FindStringSubmatch(line); m != nil {
			debugURL = m[1]
		}
		if metricsURL != "" && debugURL != "" {
			break
		}
	}
	if metricsURL == "" || debugURL == "" {
		t.Fatalf("handshake lines missing (metrics=%q debug=%q)", metricsURL, debugURL)
	}
	go func() {
		defer close(tailDone)
		for sc.Scan() {
			tail.WriteString(sc.Text())
			tail.WriteByte('\n')
		}
	}()

	select {
	case <-firstBatch:
	case <-time.After(30 * time.Second):
		t.Fatal("monitor never shipped a batch to the gated collector")
	}

	// Edge /metrics: strictly parseable, with the pool and exporter
	// telemetry the fleet dashboards scrape.
	resp, err := http.Get(metricsURL)
	if err != nil {
		t.Fatalf("scrape edge metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edge /metrics returned %s", resp.Status)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("edge /metrics rejected by strict parser: %v\npage:\n%s", err, body)
	}
	for _, series := range []string{
		"# TYPE omg_observe_seconds histogram",
		"# TYPE omg_pool_queue_wait_seconds histogram",
		"# TYPE omg_export_deliver_seconds histogram",
		"# TYPE omg_pool_queue_depth gauge",
		"# TYPE omg_export_queue_depth gauge",
		"# TYPE omg_export_delivered_total counter",
		"# TYPE omg_export_retries_total counter",
		"# TYPE omg_export_dropped_total counter",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("edge /metrics is missing %q", series)
		}
	}

	// The gated debug listener serves pprof.
	resp, err = http.Get(debugURL + "cmdline")
	if err != nil {
		t.Fatalf("scrape pprof: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline returned %s", resp.Status)
	}

	// Release the collector; the monitor drains its export and exits
	// cleanly, its summary naming the delivery stats. Stdout is read to
	// EOF before Wait so no summary line is lost.
	close(gate)
	<-tailDone
	if err := cmd.Wait(); err != nil {
		t.Fatalf("omg-monitor failed: %v\n%s", err, tail.String())
	}
	out := tail.String()
	if !regexp.MustCompile(`exported \d+ violations in \d+ batches .* \(\d+ retries, \d+ dropped, \d+ queued\)`).MatchString(out) {
		t.Fatalf("export summary with sink stats missing from output:\n%s", out)
	}
}

// TestEndToEndTeeCountsDropsPerBackend: with -log beside -export-url
// every violation goes to both backends, so when both fail the exit line
// counts each backend's drops out of the violations recorded, never their
// sum.
func TestEndToEndTeeCountsDropsPerBackend(t *testing.T) {
	bin := needBinary(t)
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail the log's writes")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := "http://" + ln.Addr().String()
	ln.Close()

	out, err := exec.Command(bin, "-frames", "300", "-log", "/dev/full",
		"-export-url", refused, "-export-deadline", "300ms").CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("want a non-zero exit, got %v:\n%s", err, out)
	}
	for _, backend := range []string{"export", "log"} {
		m := regexp.MustCompile(backend + ` sink dropped (\d+) of (\d+) violations`).FindSubmatch(out)
		if m == nil {
			t.Fatalf("%s drop accounting missing from output:\n%s", backend, out)
		}
		if dropped, recorded := string(m[1]), string(m[2]); dropped != recorded || recorded == "0" {
			t.Fatalf("%s sink dropped %s of %s violations; with the backend dead every one, and no more, must be counted:\n%s",
				backend, dropped, recorded, out)
		}
	}
}

// TestEndToEndBlackHoledCollector: a collector that accepts connections
// and never answers cannot stall the monitor. Each batch holds the
// exporter for at most -export-deadline, two dead batches open the
// circuit, and the run exits non-zero within seconds, every violation
// counted as dropped.
func TestEndToEndBlackHoledCollector(t *testing.T) {
	bin := needBinary(t)
	// Never Accept: the kernel completes each handshake into the backlog
	// and the request bytes sit unread.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	began := time.Now()
	cmd := exec.Command(bin, "-frames", "300", "-streams", "2",
		"-export-url", "http://"+ln.Addr().String(), "-export-deadline", "500ms")
	done := make(chan struct{})
	var out []byte
	go func() {
		defer close(done)
		out, err = cmd.CombinedOutput()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("omg-monitor still running after 10s against a black-holed collector:\n%s", out)
	}
	t.Logf("exited after %s", time.Since(began).Round(time.Millisecond))
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("want a non-zero exit, got %v:\n%s", err, out)
	}
	m := regexp.MustCompile(`sink dropped (\d+) of (\d+) violations`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("drop accounting missing from output:\n%s", out)
	}
	if dropped, recorded := string(m[1]), string(m[2]); dropped != recorded || recorded == "0" {
		t.Fatalf("dropped %s of %s violations; with nothing answering every one must be counted:\n%s", dropped, recorded, out)
	}
	if !regexp.MustCompile(`drops by reason \{Deadline:[1-9]\d* CircuitOpen:\d+ Rejected:0 NonFinite:0\}`).Match(out) {
		t.Fatalf("drop reasons missing or wrong:\n%s", out)
	}
}
