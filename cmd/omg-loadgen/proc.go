package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// collectorProc supervises one omg-server child: spawn, handshake (the
// first stdout line names the bound port), signal, kill, restart. The
// same data directory rides across every restart — recovery is the
// thing under test.
type collectorProc struct {
	bin     string
	dataDir string
	shards  int

	mu  sync.Mutex
	cmd *exec.Cmd
	url string
}

// start spawns the collector (plus any extra flags, e.g. the disk-fault
// injection) and blocks until the startup handshake names the port.
func (p *collectorProc) start(extra ...string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-store", "disk",
		"-data-dir", p.dataDir,
		"-shards", strconv.Itoa(p.shards),
	}
	args = append(args, extra...)
	cmd := exec.Command(p.bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "omg-server listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("omg-server printed no listening line")
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	p.cmd = cmd
	p.url = "http://" + addr
	return nil
}

func (p *collectorProc) baseURL() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.url
}

func (p *collectorProc) signal(sig syscall.Signal) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil || p.cmd.Process == nil {
		return fmt.Errorf("collector not running")
	}
	return p.cmd.Process.Signal(sig)
}

// kill SIGKILLs the collector and reaps it — the crash under test.
func (p *collectorProc) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.cmd = nil
}

// terminate asks for a graceful exit (SIGTERM) and reaps, falling back
// to SIGKILL after a grace period.
func (p *collectorProc) terminate() {
	p.mu.Lock()
	cmd := p.cmd
	p.cmd = nil
	p.mu.Unlock()
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

// waitHealthy polls /healthz until the collector answers 200.
func (p *collectorProc) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	url := p.baseURL() + "/healthz"
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("collector not healthy after %s", timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
