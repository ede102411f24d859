package export

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omg/internal/assertion"
)

const (
	defaultQueueDepth  = 1024
	defaultBatchMax    = 256
	defaultMaxRetries  = 3
	defaultBaseBackoff = 50 * time.Millisecond
	defaultMaxBackoff  = 2 * time.Second
	defaultTimeout     = 5 * time.Second
)

// HTTPSinkConfig configures an HTTPSink. The zero value of every field
// but BaseURL is usable; BaseURL is required.
type HTTPSinkConfig struct {
	// BaseURL is the collector's base URL (e.g. http://collector:9077);
	// the sink posts batches to BaseURL + IngestPath.
	BaseURL string
	// Source identifies this sender on the wire; the collector
	// deduplicates retried batches per source, so it must be unique per
	// process lifetime. Empty generates host-pid-nonce.
	Source string
	// QueueDepth bounds the record queue (default 1024). When it is full,
	// Record blocks until the shipper catches up — explicit backpressure
	// rather than silent loss.
	QueueDepth int
	// BatchMax caps how many violations are coalesced into one POST
	// (default 256).
	BatchMax int
	// MaxRetries is how many times a failed batch is retried before its
	// violations are counted as dropped (0 uses the default of 3;
	// negative disables retries, i.e. a single attempt per batch).
	// Responses in the 4xx range other than 429 are never retried: the
	// payload itself was rejected.
	MaxRetries int
	// BaseBackoff is the first retry delay (default 50ms); each further
	// retry doubles it, capped at MaxBackoff (default 2s), with jitter in
	// [50%, 100%] of the capped value.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Timeout bounds each HTTP request (default 5s). Ignored when Client
	// is set.
	Timeout time.Duration
	// Client overrides the HTTP client (e.g. for tests or custom
	// transports).
	Client *http.Client
	// Wire selects the batch codec by name: "json" (the default) or
	// "binary". Whatever is selected, the sink automatically falls back
	// to JSON — re-encoding the in-flight batch under the same sequence
	// number — when the collector answers 415/406 (it does not speak this
	// codec) or 400 (a pre-codec collector that tried to JSON-parse a
	// binary frame), so new edges keep delivering to old collectors.
	Wire string
	// Compress turns on the binary codec's DEFLATE payload compression.
	// Only meaningful with Wire "binary"; NewHTTPSink rejects it for
	// codecs without a compressed form rather than silently ignoring it.
	Compress bool
	// RetryBudget bounds the total wall-clock time one batch may spend
	// on delivery attempts and the waits between them (0 = attempt count
	// only). With a throttling collector stretching waits via
	// Retry-After, an attempt count alone no longer bounds how long a
	// batch can occupy the shipper; the budget does. A batch over budget
	// is dropped and counted exactly like one out of retries.
	RetryBudget time.Duration
	// BreakerFailures opens a circuit breaker after this many
	// consecutive batches have exhausted their retries on transient
	// errors (0 disables the breaker). While open, batches are dropped
	// (counted, never silent) without touching the network, except one
	// single-attempt probe every BreakerProbe; a successful probe closes
	// the circuit. A dead collector then costs the fleet one probe per
	// interval instead of a full retry ladder per batch. Permanent
	// (4xx-rejected) batches do not trip the breaker: the collector is
	// alive and talking.
	BreakerFailures int
	// BreakerProbe is the half-open probe interval (default
	// 2*MaxBackoff).
	BreakerProbe time.Duration
}

func (c *HTTPSinkConfig) fill() {
	if c.Source == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "omg"
		}
		c.Source = fmt.Sprintf("%s-%d-%08x", host, os.Getpid(), rand.Uint32())
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = defaultQueueDepth
	}
	if c.BatchMax <= 0 {
		c.BatchMax = defaultBatchMax
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = defaultMaxRetries
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = defaultBaseBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = defaultMaxBackoff
	}
	if c.Timeout <= 0 {
		c.Timeout = defaultTimeout
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: c.Timeout}
	}
	if c.BreakerProbe <= 0 {
		c.BreakerProbe = 2 * c.MaxBackoff
	}
}

// HTTPSink ships a recorder's violation stream to a collector over HTTP:
// the network backend of the Sink seam. Violations are handed to a single
// shipper goroutine over a bounded queue; the shipper coalesces whatever
// is queued into one wire Batch per POST and retries failed deliveries
// with exponential backoff and jitter. A batch that exhausts its retry
// budget is dropped and counted (Dropped), never silently lost, and the
// failure is retained for Err — but the sink does not latch dead: later
// batches get their own retry budget, so a collector outage only costs
// the batches shipped while it lasted.
//
// Exactly-once: each batch carries a (Source, Seq) pair reused across its
// retries, and the collector ignores sequence numbers it has already
// applied, so a retry after a lost response cannot double-count.
type HTTPSink struct {
	cfg HTTPSinkConfig
	url string

	// codec is the wire codec batches encode with. Owned by the shipper
	// goroutine after construction: the JSON fallback swaps it without
	// locking, and readers (Stats) learn about the swap via fellBack.
	codec    BatchCodec
	fellBack atomic.Bool

	mu     sync.RWMutex // record (read side) vs close (write side)
	closed bool
	ch     chan assertion.Violation

	pendingMu   sync.Mutex
	pendingCond *sync.Cond
	pendingN    int

	done    chan struct{}
	closing chan struct{} // closed as Close begins: aborts backoff waits

	// Circuit-breaker state. consecFailures and breakerUntil are owned by
	// the shipper goroutine; breakerOpen and the counters are atomics so
	// Stats can read them from any goroutine.
	consecFailures int
	breakerUntil   time.Time
	breakerOpen    atomic.Bool
	breakerDropped atomic.Int64
	probes         atomic.Int64

	errMu sync.Mutex
	err   error // first delivery failure, retained

	seq       atomic.Uint64
	delivered atomic.Int64
	batches   atomic.Int64
	retries   atomic.Int64
	dropped   atomic.Int64
}

// NewHTTPSink returns a sink exporting violation batches to the collector
// at cfg.BaseURL. The shipper goroutine starts immediately; Close stops
// it after draining the queue.
func NewHTTPSink(cfg HTTPSinkConfig) (*HTTPSink, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("export: HTTPSink requires a BaseURL")
	}
	if !strings.HasPrefix(cfg.BaseURL, "http://") && !strings.HasPrefix(cfg.BaseURL, "https://") {
		return nil, fmt.Errorf("export: HTTPSink BaseURL %q must start with http:// or https://", cfg.BaseURL)
	}
	cfg.fill()
	codec, err := Codec(cfg.Wire)
	if err != nil {
		return nil, err
	}
	if cfg.Compress {
		if codec.Name() != CodecBinary {
			return nil, fmt.Errorf("export: HTTPSink Compress requires the %q wire codec, not %q", CodecBinary, codec.Name())
		}
		codec = &BinaryCodec{Compress: true}
	}
	s := &HTTPSink{
		cfg:     cfg,
		url:     strings.TrimSuffix(cfg.BaseURL, "/") + IngestPath,
		codec:   codec,
		ch:      make(chan assertion.Violation, cfg.QueueDepth),
		done:    make(chan struct{}),
		closing: make(chan struct{}),
	}
	s.pendingCond = sync.NewCond(&s.pendingMu)
	go s.run()
	return s, nil
}

// Source returns the sender identity stamped on this sink's batches.
func (s *HTTPSink) Source() string { return s.cfg.Source }

// Record queues one violation for export, blocking when the queue is full
// (backpressure). It returns ErrSinkClosed once the sink has been closed.
// Record stamps ObservedUnixNano (when the caller has not): it runs
// synchronously on the observe path, so the stamp is the observe-side end
// of the collector's end-to-end latency measurement.
func (s *HTTPSink) Record(v assertion.Violation) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return assertion.ErrSinkClosed
	}
	if v.ObservedUnixNano == 0 {
		v.ObservedUnixNano = time.Now().UnixNano()
	}
	s.addPending(1)
	s.ch <- v
	return nil
}

// Flush blocks until every accepted violation has been delivered to the
// collector or dropped after exhausting its retries, and returns the
// first delivery error, if any.
func (s *HTTPSink) Flush() error {
	s.pendingMu.Lock()
	for s.pendingN > 0 {
		s.pendingCond.Wait()
	}
	s.pendingMu.Unlock()
	return s.Err()
}

// Close drains the queue (delivering or counting every queued violation),
// stops the shipper and returns the first delivery error. It is
// idempotent; Record returns ErrSinkClosed afterwards. A shipper asleep
// in a backoff wait wakes immediately and retries without further
// waits, so Close is bounded by the delivery attempts themselves —
// against a dead collector it returns in a few fast-failing attempts
// per queued batch, never a full backoff ladder each.
func (s *HTTPSink) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.closing)
		close(s.ch)
	}
	<-s.done
	return s.Err()
}

// Err returns the first delivery failure, if any, without blocking for
// in-flight batches.
func (s *HTTPSink) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// Dropped returns how many violations were discarded after their batch
// exhausted its retry budget or was rejected outright — actual loss, per
// the DropCounter contract. Delivered() + Dropped() equals the violations
// accepted by Record once Flush returns.
func (s *HTTPSink) Dropped() int64 { return s.dropped.Load() }

// Delivered returns how many violations the collector has acknowledged.
func (s *HTTPSink) Delivered() int64 { return s.delivered.Load() }

// Batches returns how many batches have been acknowledged.
func (s *HTTPSink) Batches() int64 { return s.batches.Load() }

// Retries returns how many delivery attempts were retries.
func (s *HTTPSink) Retries() int64 { return s.retries.Load() }

// HTTPSinkStats is a point-in-time snapshot of a sink's delivery
// telemetry, for exit summaries and scrape-time gauges.
type HTTPSinkStats struct {
	// Delivered is how many violations the collector has acknowledged.
	Delivered int64
	// Batches is how many batches have been acknowledged.
	Batches int64
	// Retries is how many delivery attempts were retries.
	Retries int64
	// Dropped is how many violations were discarded after exhausting
	// their batch's retry budget.
	Dropped int64
	// Queued is how many violations are waiting in the record queue
	// right now (excluding the batch the shipper is delivering).
	Queued int
	// Wire is the codec batches currently ship with; WireFellBack flips
	// when the configured codec was refused and the sink renegotiated
	// down to JSON.
	Wire         string
	WireFellBack bool
	// BreakerOpen reports whether the circuit breaker is currently open;
	// BreakerDropped is how many violations were fast-dropped by the
	// open circuit (a subset of Dropped); Probes is how many half-open
	// probe batches have been attempted.
	BreakerOpen    bool
	BreakerDropped int64
	Probes         int64
}

// Stats returns a consistent-enough snapshot of the sink's delivery
// counters for reporting; each field is individually atomic.
func (s *HTTPSink) Stats() HTTPSinkStats {
	return HTTPSinkStats{
		Delivered:      s.delivered.Load(),
		Batches:        s.batches.Load(),
		Retries:        s.retries.Load(),
		Dropped:        s.dropped.Load(),
		Queued:         len(s.ch),
		Wire:           s.Wire(),
		WireFellBack:   s.fellBack.Load(),
		BreakerOpen:    s.breakerOpen.Load(),
		BreakerDropped: s.breakerDropped.Load(),
		Probes:         s.probes.Load(),
	}
}

// Wire returns the name of the codec batches currently ship with —
// the configured one, or "json" after the fallback latched.
func (s *HTTPSink) Wire() string {
	if s.fellBack.Load() {
		return CodecJSON
	}
	if s.cfg.Wire == "" {
		return CodecJSON
	}
	return s.cfg.Wire
}

func (s *HTTPSink) setErr(err error) {
	if err == nil {
		return
	}
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

func (s *HTTPSink) addPending(delta int) {
	s.pendingMu.Lock()
	s.pendingN += delta
	if s.pendingN <= 0 {
		s.pendingCond.Broadcast()
	}
	s.pendingMu.Unlock()
}

func (s *HTTPSink) run() {
	defer close(s.done)
	// The shipper owns its coalescing buffer and its encode buffer for its
	// whole lifetime, so a warmed-up sink builds wire payloads without
	// allocating per batch.
	batch := make([]assertion.Violation, 0, s.cfg.BatchMax)
	encBuf := make([]byte, 0, 4096)
	for v := range s.ch {
		batch = append(batch[:0], v)
	drain:
		for len(batch) < s.cfg.BatchMax {
			select {
			case more, ok := <-s.ch:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		encBuf = s.ship(encBuf[:0], batch)
		s.addPending(-len(batch))
	}
}

// ship encodes one batch into buf (reflection-free, reusing buf's backing
// array) and delivers it, retrying transient failures with exponential
// backoff and jitter — stretched to honor a collector's Retry-After,
// bounded by RetryBudget, and short-circuited entirely while the circuit
// breaker is open. On giving up the batch's violations are counted as
// dropped and the last failure is retained. The extended buffer is
// returned so the shipper keeps its capacity across batches.
func (s *HTTPSink) ship(buf []byte, violations []assertion.Violation) []byte {
	start := deliverHist.StartIf(true)
	defer deliverHist.Done(start)
	wb := Batch{
		Version:    WireVersion,
		Source:     s.cfg.Source,
		Seq:        s.seq.Add(1),
		Violations: violations,
	}
	probing := false
	if s.cfg.BreakerFailures > 0 && s.breakerOpen.Load() {
		if time.Now().Before(s.breakerUntil) {
			// Open circuit: fail fast without touching the network. The
			// loss is counted (dropped + breakerDropped), never silent.
			s.breakerDropped.Add(int64(len(violations)))
			s.dropped.Add(int64(len(violations)))
			s.setErr(fmt.Errorf("export: deliver batch to %s: circuit open after %d consecutive failed batches", s.url, s.consecFailures))
			return buf
		}
		// Half-open: this batch is the probe — one attempt, no retries.
		probing = true
		s.probes.Add(1)
	}
	body, err := s.codec.AppendBatch(buf, wb)
	if err != nil {
		// Neither codec carries a non-finite Time or Severity: drop only
		// those, counted, and ship the rest under the same Seq — one bad
		// value must not cost the violations beside it.
		s.setErr(fmt.Errorf("export: encode batch: %w", err))
		kept := violations[:0]
		for _, v := range violations {
			if finite(v.Time) && finite(v.Severity) {
				kept = append(kept, v)
			}
		}
		if len(kept) > 0 && len(kept) < len(violations) {
			s.dropped.Add(int64(len(violations) - len(kept)))
			violations, wb.Violations = kept, kept
			body, err = s.codec.AppendBatch(buf, wb)
		}
		if err != nil {
			s.dropped.Add(int64(len(violations)))
			return buf
		}
	}
	began := time.Now()
	transient := false
	for attempt := 0; ; attempt++ {
		var retryAfter time.Duration
		retryAfter, err = s.post(body, wb.Seq)
		if err == nil {
			s.delivered.Add(int64(len(violations)))
			s.batches.Add(1)
			s.consecFailures = 0
			s.breakerOpen.Store(false)
			return body
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			// A 415/406 (this collector does not accept our codec) or 400
			// (a pre-codec collector choked JSON-parsing a binary frame)
			// means the *codec* was refused, not the batch: renegotiate by
			// latching onto JSON and re-sending the same batch — same
			// sequence number, so dedup semantics are untouched — without
			// spending the retry budget on the handshake.
			if s.codec.Name() != CodecJSON && fallbackStatus(perm.status) {
				s.codec = jsonCodec{}
				s.fellBack.Store(true)
				if body, err = s.codec.AppendBatch(body[:0], wb); err == nil {
					attempt--
					continue
				}
				err = fmt.Errorf("export: re-encode batch as json: %w", err)
			}
			transient = false
			break
		}
		transient = true
		if probing || attempt >= s.cfg.MaxRetries {
			break
		}
		// The collector's Retry-After stretches this attempt's wait, but
		// stays clamped into the existing ladder: never beyond MaxBackoff,
		// so one bad header cannot park the shipper for an hour.
		wait := s.backoff(attempt)
		if retryAfter > wait {
			wait = retryAfter
		}
		if wait > s.cfg.MaxBackoff {
			wait = s.cfg.MaxBackoff
		}
		if s.cfg.RetryBudget > 0 && time.Since(began)+wait > s.cfg.RetryBudget {
			err = fmt.Errorf("retry budget %s exhausted: %w", s.cfg.RetryBudget, err)
			break
		}
		s.retries.Add(1)
		s.sleep(wait)
	}
	if s.cfg.BreakerFailures > 0 && transient {
		s.consecFailures++
		if s.consecFailures >= s.cfg.BreakerFailures {
			s.breakerOpen.Store(true)
			s.breakerUntil = time.Now().Add(s.cfg.BreakerProbe)
		}
	}
	s.setErr(fmt.Errorf("export: deliver batch to %s: %w", s.url, err))
	s.dropped.Add(int64(len(violations)))
	return body
}

// sleep waits d — or not at all once Close has begun. A closing sink
// keeps making its retry attempts (a collector recovering from a blip
// still receives every queued batch, per the drain contract) but skips
// the waits between them, so Close is bounded by the attempts
// themselves, never by the backoff ladder.
func (s *HTTPSink) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.closing:
	}
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// fallbackStatus reports whether an HTTP status from the collector should
// trigger the JSON wire fallback. 413 is excluded: the body was too big,
// and a JSON re-encode of the same batch is no smaller.
func fallbackStatus(status int) bool {
	return status == http.StatusUnsupportedMediaType ||
		status == http.StatusNotAcceptable ||
		status == http.StatusBadRequest
}

// post delivers one encoded batch. On a non-2xx answer carrying a
// Retry-After header (a throttling or degraded collector), the parsed
// wait is returned alongside the error so ship can stretch its backoff.
func (s *HTTPSink) post(body []byte, seq uint64) (retryAfter time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return 0, &permanentError{err: err}
	}
	req.Header.Set("Content-Type", s.codec.ContentType())
	// The batch identity rides the headers too, so an overloaded
	// collector can acknowledge an already-applied retry without reading
	// the body — admission control never wedges the dedup window.
	req.Header.Set(SourceHeader, s.cfg.Source)
	req.Header.Set(SeqHeader, strconv.FormatUint(seq, 10))
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	// Drain before closing or the transport cannot return the connection
	// to its keep-alive pool, and every batch would pay a new handshake.
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	if resp.StatusCode/100 == 2 {
		return 0, nil
	}
	if v := strings.TrimSpace(resp.Header.Get("Retry-After")); v != "" {
		// Only the delta-seconds form is parsed (it is what the collector
		// sends); an HTTP-date or garbage value is ignored, falling back
		// to the sink's own backoff.
		if secs, perr := strconv.Atoi(v); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	err = fmt.Errorf("collector returned %s", resp.Status)
	if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
		// The collector understood the request and rejected the payload:
		// retrying the same bytes cannot succeed.
		return retryAfter, &permanentError{err: err, status: resp.StatusCode}
	}
	return retryAfter, err
}

// backoff returns the delay before retry number attempt+1: BaseBackoff
// doubled per attempt, capped at MaxBackoff, jittered into [50%, 100%] so
// a fleet of senders recovering from a collector outage does not thunder
// back in lockstep.
func (s *HTTPSink) backoff(attempt int) time.Duration {
	d := s.cfg.BaseBackoff << uint(attempt)
	if d > s.cfg.MaxBackoff || d <= 0 {
		d = s.cfg.MaxBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// permanentError marks a delivery failure retrying cannot fix; status
// carries the HTTP status code when the collector answered (0 otherwise),
// which the wire fallback dispatches on.
type permanentError struct {
	err    error
	status int
}

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }
