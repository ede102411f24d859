package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// usage is a process's resource reading: CPU time consumed so far
// (utime+stime) and resident memory now and at its peak.
type usage struct {
	CPU    time.Duration
	RSSMB  float64
	PeakMB float64
}

// collector is the system under test as the load generator holds it:
// either a spawned omg-server process (every end-to-end metric) or the
// in-process twin (traced run, smoke test). Both listen on a port of
// their own and are driven over HTTP only.
type collector interface {
	url() string
	// crash ends the collector the hard way — SIGKILL for the process,
	// abandonment without flush or checkpoint for the twin.
	crash()
	// restart brings a crashed collector back on the same data directory
	// and returns how long it took from launch until /healthz answered 200.
	restart() (time.Duration, error)
	// stop shuts the collector down for good.
	stop()
	usage() usage
}

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat counts CPU time in
// these. It is 100 on every Linux this runs on.
const clockTick = 10 * time.Millisecond

// procUsage reads a process's CPU time and memory from /proc.
func procUsage(pid int) usage {
	var u usage
	if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the line, so the 12th and 13th after ")".
		if i := strings.LastIndexByte(string(data), ')'); i >= 0 {
			f := strings.Fields(string(data[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				u.CPU = time.Duration(ut+st) * clockTick
			}
		}
	}
	if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) < 2 {
				continue
			}
			kb, _ := strconv.ParseFloat(f[1], 64)
			switch f[0] {
			case "VmRSS:":
				u.RSSMB = kb / 1024
			case "VmHWM:":
				u.PeakMB = kb / 1024
			}
		}
	}
	return u
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + healthPath)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("collector at %s not healthy after %s", base, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// procCollector supervises one omg-server child on port 0.
type procCollector struct {
	bin     string
	spec    collectorSpec
	dataDir string
	client  *http.Client

	// mu guards cmd and base: an interrupt stops the collector from another
	// goroutine than the one driving it.
	mu   sync.Mutex
	cmd  *exec.Cmd
	base string
}

func startProcCollector(bin string, spec collectorSpec, dataDir string, client *http.Client) (*procCollector, error) {
	p := &procCollector{bin: bin, spec: spec, dataDir: dataDir, client: client}
	if _, err := p.restart(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *procCollector) url() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base
}

// take returns the running child, if any, and forgets it.
func (p *procCollector) take() *exec.Cmd {
	p.mu.Lock()
	defer p.mu.Unlock()
	cmd := p.cmd
	p.cmd = nil
	return cmd
}

func (p *procCollector) restart() (time.Duration, error) {
	cmd := exec.Command(p.bin, p.spec.flags(p.dataDir)...)
	cmd.Stderr = os.Stderr
	// The child must not outlive the harness on any exit path, including
	// ones that skip the deferred stop (a panic, SIGKILL of the harness).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("start %s: %w", p.bin, err)
	}
	p.mu.Lock()
	p.cmd = cmd
	p.mu.Unlock()
	// The listening line is the startup handshake: it names the port that
	// -addr 127.0.0.1:0 resolved to, and it is printed after recovery.
	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), listeningPrefix); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		p.crash()
		return 0, errors.New("omg-server exited without printing its listening line")
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained; ends with the child
	base := "http://" + addr
	p.mu.Lock()
	p.base = base
	p.mu.Unlock()
	if err := waitHealthy(p.client, base, 30*time.Second); err != nil {
		p.crash()
		return 0, err
	}
	return time.Since(t0), nil
}

func (p *procCollector) crash() {
	if cmd := p.take(); cmd != nil {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

// stop asks for a graceful exit and reaps the child, falling back to
// SIGKILL after a grace period.
func (p *procCollector) stop() {
	cmd := p.take()
	if cmd == nil {
		return
	}
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}

func (p *procCollector) usage() usage {
	p.mu.Lock()
	cmd := p.cmd
	p.mu.Unlock()
	if cmd == nil {
		return usage{}
	}
	return procUsage(cmd.Process.Pid)
}

// inprocCollector is the twin behind a listener of the benchmark's own.
// wrap puts the tracer's handler middleware around Collector.Handler().
type inprocCollector struct {
	spec    collectorSpec
	dataDir string
	client  *http.Client
	wrap    func(http.Handler) http.Handler

	mu   sync.Mutex // guards twin, srv and base, as in procCollector
	twin *twinCollector
	srv  *http.Server
	base string
}

func startInprocCollector(spec collectorSpec, dataDir string, client *http.Client, wrap func(http.Handler) http.Handler) (*inprocCollector, error) {
	c := &inprocCollector{spec: spec, dataDir: dataDir, client: client, wrap: wrap}
	if _, err := c.restart(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *inprocCollector) url() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base
}

// take returns the running twin and its server, if any, and forgets them.
func (c *inprocCollector) take() (*twinCollector, *http.Server) {
	c.mu.Lock()
	defer c.mu.Unlock()
	twin, srv := c.twin, c.srv
	c.twin, c.srv = nil, nil
	return twin, srv
}

func (c *inprocCollector) restart() (time.Duration, error) {
	t0 := time.Now()
	twin, err := openTwinCollector(c.spec, c.dataDir)
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		twin.close()
		return 0, err
	}
	h := twin.handler()
	if c.wrap != nil {
		h = c.wrap(h)
	}
	srv, base := &http.Server{Handler: h}, "http://"+ln.Addr().String()
	c.mu.Lock()
	c.twin, c.srv, c.base = twin, srv, base
	c.mu.Unlock()
	go srv.Serve(ln)
	if err := waitHealthy(c.client, base, 30*time.Second); err != nil {
		c.stop()
		return 0, err
	}
	return time.Since(t0), nil
}

func (c *inprocCollector) crash() {
	if twin, srv := c.take(); srv != nil {
		twin.abandon()
		srv.Close()
	}
}

func (c *inprocCollector) stop() {
	twin, srv := c.take()
	if srv == nil {
		return
	}
	twin.abandon() // ends tail streams, or Shutdown would wait on them
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	twin.close()
}

// usage of the twin is the benchmark process's own: the twin has no
// process to itself, which is one reason no end-to-end metric comes from
// it.
func (c *inprocCollector) usage() usage { return procUsage(os.Getpid()) }
