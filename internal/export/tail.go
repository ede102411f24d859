package export

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"omg/internal/assertion"
)

// TailPath is the collector's SSE live-tail endpoint: violations stream
// to subscribers as they ingest.
const TailPath = "/v1/violations/tail"

// tailHeartbeat is how often an idle tail stream emits a keep-alive
// comment, so proxies and clients can tell a quiet stream from a dead
// one. Variable, not const, so tests can shrink it.
var tailHeartbeat = 15 * time.Second

// tailWriteGrace is how long one tail write may block before the
// subscriber is declared stalled and disconnected. The tail endpoint
// lifts the server-wide WriteTimeout (an SSE stream is supposed to live
// forever), so this per-write deadline is what keeps a consumer that
// stopped reading from parking the handler goroutine indefinitely.
// Variable, not const, so tests can shrink it.
var tailWriteGrace = 30 * time.Second

// tailBuffer bounds each live-tail client's event buffer. A slow client
// overflows its own buffer and the overflow is dropped and counted —
// ingest never stalls on a tail consumer.
const tailBuffer = 256

// tailClient is one live-tail subscriber: a bounded event buffer plus
// optional assertion/stream filters. The buffer decouples the subscriber
// from ingest — publish never blocks on a slow client, it drops the
// event for that client and counts the loss. The buffered events are
// fully rendered SSE frames ("event: <type>\ndata: <json>\n\n"): publish
// renders each event exactly once and every subscriber shares the same
// bytes, so fan-out cost does not grow with the client count and the hub
// can carry event types beyond violations (weaklabel).
type tailClient struct {
	ch        chan []byte
	assertion string // "" = all assertions
	stream    string // "" = all streams
	dropped   atomic.Int64
}

// tailHub fans ingested violations out to live-tail subscribers. The
// ingest path pays one atomic load when nobody is tailing.
type tailHub struct {
	buffer int // per-client event slots: tailBuffer (tests shrink it)

	mu      sync.Mutex
	clients map[*tailClient]struct{}
	closed  bool

	n       atomic.Int64 // len(clients), read lock-free on the ingest path
	dropped atomic.Int64 // events lost to full client buffers, hub-wide

	done chan struct{} // closed by close(); ends every stream
}

func newTailHub() *tailHub {
	return &tailHub{
		buffer:  tailBuffer,
		clients: make(map[*tailClient]struct{}),
		done:    make(chan struct{}),
	}
}

// subscribe registers a new client. On a closed hub the client is
// returned unregistered; its stream ends immediately via done.
func (h *tailHub) subscribe(assertionName, stream string) *tailClient {
	cl := &tailClient{
		ch:        make(chan []byte, h.buffer),
		assertion: assertionName,
		stream:    stream,
	}
	h.mu.Lock()
	if !h.closed {
		h.clients[cl] = struct{}{}
		h.n.Store(int64(len(h.clients)))
	}
	h.mu.Unlock()
	return cl
}

func (h *tailHub) unsubscribe(cl *tailClient) {
	h.mu.Lock()
	delete(h.clients, cl)
	h.n.Store(int64(len(h.clients)))
	h.mu.Unlock()
}

// publish offers v to every matching subscriber as an `event: violation`
// frame without ever blocking: a client whose buffer is full loses this
// event, and the loss is counted per client and hub-wide instead of
// stalling ingest.
func (h *tailHub) publish(v assertion.Violation) {
	h.publishEvent("violation", v.Assertion, v.Stream, func() ([]byte, error) {
		return assertion.AppendViolationJSON(nil, v)
	})
}

// publishEvent fans one typed SSE event out to every subscriber whose
// assertion/stream filters match. The frame is rendered at most once —
// lazily, when the first subscriber matches — and the resulting bytes are
// shared by every matching client, replacing the old marshal-per-client
// fan-out. encode returning an error (NaN/Inf payload) drops the event
// for everyone.
func (h *tailHub) publishEvent(event, assertionName, stream string, encode func() ([]byte, error)) {
	if h.n.Load() == 0 {
		return
	}
	start := tailBroadcastHist.StartIf(true)
	defer tailBroadcastHist.Done(start)
	var frame []byte // rendered on first match, then shared
	h.mu.Lock()
	for cl := range h.clients {
		if cl.assertion != "" && cl.assertion != assertionName {
			continue
		}
		if cl.stream != "" && cl.stream != stream {
			continue
		}
		if frame == nil {
			data, err := encode()
			if err != nil {
				break
			}
			frame = append(frame, "event: "...)
			frame = append(frame, event...)
			frame = append(frame, "\ndata: "...)
			frame = append(frame, data...)
			frame = append(frame, "\n\n"...)
		}
		select {
		case cl.ch <- frame:
		default:
			cl.dropped.Add(1)
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// close ends every subscriber's stream. Idempotent.
func (h *tailHub) close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.done)
	}
	h.mu.Unlock()
}

func (h *tailHub) clientCount() int64  { return h.n.Load() }
func (h *tailHub) droppedTotal() int64 { return h.dropped.Load() }

// handleTail serves GET /v1/violations/tail as a Server-Sent Events
// stream: one `event: violation` per ingested violation (after
// ?assertion= and ?stream= filters), one `event: weaklabel` per
// violation of a consistency-generated assertion carrying its §4.2
// corrective proposal, `event: dropped` whenever this
// subscriber's bounded buffer has lost events since the last report, a
// keep-alive comment on idle, and `event: end` when the collector shuts
// down. Slow consumers lose events, never stall ingest.
func (c *Collector) handleTail(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// An SSE stream is supposed to outlive any server-wide WriteTimeout,
	// so lift the connection deadline here (the error is ignored: writers
	// without deadline support — httptest recorders — still stream) and
	// instead arm a fresh per-write grace before every write below. A
	// consumer that stops reading then costs one stalled write, not a
	// leaked goroutine.
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{})
	write := func(format string, args ...any) bool {
		rc.SetWriteDeadline(time.Now().Add(tailWriteGrace))
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	q := r.URL.Query()
	cl := c.tail.subscribe(q.Get("assertion"), q.Get("stream"))
	defer c.tail.unsubscribe(cl)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // tell buffering proxies not to
	w.WriteHeader(http.StatusOK)
	if !write(": omg-collector live tail\n\n") {
		return
	}

	heartbeat := time.NewTicker(tailHeartbeat)
	defer heartbeat.Stop()
	var reported int64
	// reportDrops tells the subscriber about buffer losses it has not
	// heard of yet; the final call before the end event settles the
	// accounting, so a stream that ends cleanly has had every loss
	// reported.
	reportDrops := func() bool {
		if d := cl.dropped.Load(); d > reported {
			reported = d
			return write("event: dropped\ndata: {\"dropped\":%d}\n\n", d)
		}
		return true
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-c.tail.done:
			reportDrops()
			write("event: end\ndata: collector shutting down\n\n")
			return
		case frame := <-cl.ch:
			rc.SetWriteDeadline(time.Now().Add(tailWriteGrace))
			if _, err := w.Write(frame); err != nil {
				return
			}
			if !reportDrops() {
				return
			}
			fl.Flush()
		case <-heartbeat.C:
			// The idle tick also reports losses: a client whose buffer
			// overflowed during a burst and then matched nothing further
			// must still learn it lost events.
			if !reportDrops() {
				return
			}
			if !write(": heartbeat\n\n") {
				return
			}
		}
	}
}
