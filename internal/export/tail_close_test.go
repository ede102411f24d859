package export

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// A slow tail consumer during collector Close, with subscriber churn in
// the background, must end with the books balanced: every violation
// published to the subscriber was either delivered or reported dropped
// (up to the handful of frames stranded in the client buffer when the
// end event cut in), the hub-wide counter matches what the subscriber
// was told, and no handler goroutine outlives the server.
func TestTailSlowConsumerAccountingOnCloseUnderChurn(t *testing.T) {
	defer func(h, g time.Duration) { tailHeartbeat = h; tailWriteGrace = g }(tailHeartbeat, tailWriteGrace)
	tailHeartbeat = 10 * time.Millisecond
	tailWriteGrace = 500 * time.Millisecond

	goroutinesBefore := runtime.NumGoroutine()

	const slots = 4 // per-client buffer, shrunk from tailBuffer
	c := openCollector(t, CollectorConfig{})
	c.tail.buffer = slots
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// The subscriber under test connects first so every published
	// violation is offered to it, then deliberately does not read until
	// after ingest: the 4-slot buffer overflows and sheds.
	sc, closeTail := tailConn(t, srv.URL+TailPath)
	defer closeTail()
	waitForTailClients(t, c, 1)

	// Churn: subscribers connecting, reading a little and vanishing
	// (context cancel) the whole time, including across Close.
	churnStop := make(chan struct{})
	var churn sync.WaitGroup
	for i := 0; i < 4; i++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-churnStop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+TailPath, nil)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				cancel()
			}
		}()
	}

	const batches, perBatch = 40, 25
	for seq := 1; seq <= batches; seq++ {
		postBatch(t, srv.URL, mkBatch("edge-01", uint64(seq), perBatch))
	}
	published := int64(batches * perBatch)
	if got := c.TotalFired(); int64(got) != published {
		t.Fatalf("TotalFired = %d, want %d", got, published)
	}

	// Close while the subscriber still has frames and drop reports
	// outstanding; churn keeps hammering the endpoint meanwhile.
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()

	// Drain the stream to its end, counting deliveries and keeping the
	// last loss report (reports carry the cumulative count).
	var received, reportedDropped int64
	sawEnd := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: violation"):
			received++
		case strings.HasPrefix(line, "event: end"):
			sawEnd = true
		case strings.HasPrefix(line, "data: {\"dropped\""):
			var d struct {
				Dropped int64 `json:"dropped"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
				t.Fatalf("bad dropped report %q: %v", line, err)
			}
			reportedDropped = d.Dropped
		}
	}
	if !sawEnd {
		t.Fatal("stream ended without an end event")
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v", err)
	}
	close(churnStop)
	churn.Wait()

	if reportedDropped == 0 {
		t.Fatalf("no losses reported: %d published into a %d-slot buffer must shed", published, slots)
	}
	// Conservation: delivered + reported-dropped accounts for every
	// published violation except the at-most-slots frames stranded
	// in the client buffer when the end event preempted them.
	accounted := received + reportedDropped
	if accounted > published || accounted < published-slots {
		t.Fatalf("received %d + dropped %d = %d, want within [%d, %d]",
			received, reportedDropped, accounted, published-slots, published)
	}
	// The exported tail_dropped_total is hub-wide: it carries this
	// subscriber's full reported share plus whatever the churning
	// subscribers shed before vanishing.
	if hub := c.tail.droppedTotal(); hub < reportedDropped {
		t.Fatalf("hub dropped %d < the %d reported to one subscriber", hub, reportedDropped)
	}
	waitForTailClients(t, c, 0)

	// No handler goroutine may outlive the server (the leak this guards
	// against: tail handlers ignoring Close and waiting on clients).
	closeTail()
	srv.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= goroutinesBefore+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 64<<10)
	t.Fatalf("goroutines: %d before, %d after close\n%s",
		goroutinesBefore, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}
