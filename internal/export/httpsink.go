package export

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omg/internal/assertion"
)

const (
	queueDepth      = 1024
	defaultBatchMax = 256
	defaultDeadline = 10 * time.Second
	// circuitAfter is how many batches in a row must run out their
	// deadline on transient failures before the circuit opens.
	circuitAfter = 2
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
	// BatchMax caps how many violations are coalesced into one POST
	// (default 256).
	BatchMax int
	// Deadline is the longest one batch may hold the shipper, its
	// attempts and the waits between them together (default 10s). It is
	// the sink's one delivery knob; the rest of the policy derives from
	// it. Each attempt times out after Deadline/2. Retries back off from
	// Deadline/200, doubling to Deadline/5, with jitter in [50%, 100%]; a
	// collector's Retry-After stretches a wait up to Deadline/5. A batch
	// whose next attempt would not start before its deadline is dropped
	// and counted. Two batches in a row dropped that way open the
	// circuit: batches are then dropped without touching the network,
	// except one single-attempt probe every Deadline. Any answer that is
	// not a transient failure closes the circuit. 4xx responses other
	// than 429 are never retried: the payload itself was rejected.
	Deadline time.Duration
	// Client overrides the HTTP client (e.g. for tests or custom
	// transports). Each attempt is bounded by its own request context
	// whatever the client's Timeout.
	Client *http.Client
	// Wire selects the batch codec by name: "json" (the default) or
	// "binary". Whatever is selected, the sink automatically falls back
	// to JSON — re-encoding the in-flight batch under the same sequence
	// number — when the collector answers 415/406 or 400, which is how a
	// collector older than the binary wire refuses a binary frame, so new
	// edges keep delivering to old collectors.
	Wire string
}

func (c *HTTPSinkConfig) fill() {
	if c.Source == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "omg"
		}
		c.Source = fmt.Sprintf("%s-%d-%08x", host, os.Getpid(), rand.Uint32())
	}
	if c.BatchMax <= 0 {
		c.BatchMax = defaultBatchMax
	}
	if c.Deadline <= 0 {
		c.Deadline = defaultDeadline
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
}

// HTTPSink ships a recorder's violation stream to a collector over HTTP:
// the network backend of the Sink seam. It is an assertion.QueuedSink
// whose ship step encodes each coalesced run into one wire Batch per POST
// and delivers it under the policy next decides (see
// HTTPSinkConfig.Deadline). A batch that is not delivered is dropped and
// counted by reason (Stats), never silently lost, and the failure is
// retained for Err — but the sink does not latch dead: a collector outage
// costs the batches shipped while it lasted, and one Deadline of open
// circuit after it.
//
// Exactly-once: each batch carries a (Source, Seq) pair reused across its
// retries, and the collector ignores sequence numbers it has already
// applied, so a retry after a lost response cannot double-count.
type HTTPSink struct {
	*assertion.QueuedSink
	cfg HTTPSinkConfig
	url string

	// codec is the wire codec batches encode with, and buf the reused
	// encode buffer. Owned by the shipper goroutine after construction:
	// the JSON fallback swaps codec without locking, and readers (Stats)
	// learn about the swap via fellBack.
	codec    BatchCodec
	buf      []byte
	fellBack atomic.Bool

	closeOnce sync.Once
	closing   chan struct{} // closed as Close begins: cuts retry waits short

	// The policy's memory and clock, owned by the shipper goroutine. The
	// clock reads time.Since(epoch); Close moves epoch back by every wait
	// it cuts short, so a skipped wait still counts against its batch.
	state deliveryState
	epoch time.Time

	seq         atomic.Uint64
	delivered   atomic.Int64
	batches     atomic.Int64
	retries     atomic.Int64
	circuitOpen atomic.Bool
	drops       [numDropReasons]atomic.Int64
}

// NewHTTPSink returns a sink exporting violation batches to the collector
// at cfg.BaseURL, with a queue of 1024 violations. The shipper goroutine
// starts immediately; Close stops it after draining the queue.
func NewHTTPSink(cfg HTTPSinkConfig) (*HTTPSink, error) {
	if u, err := url.Parse(cfg.BaseURL); err != nil || u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("export: HTTPSink BaseURL %q must be an http:// or https:// URL", cfg.BaseURL)
	}
	cfg.fill()
	codec, err := Codec(cfg.Wire)
	if err != nil {
		return nil, err
	}
	s := &HTTPSink{
		cfg:     cfg,
		url:     strings.TrimSuffix(cfg.BaseURL, "/") + IngestPath,
		codec:   codec,
		buf:     make([]byte, 0, 4096),
		closing: make(chan struct{}),
		state:   deliveryState{deadline: cfg.Deadline, json: codec.Name() == CodecJSON},
		epoch:   time.Now(),
	}
	s.QueuedSink = assertion.NewQueuedSink(queueDepth, cfg.BatchMax, s.ship)
	return s, nil
}

// Source returns the sender identity stamped on this sink's batches.
func (s *HTTPSink) Source() string { return s.cfg.Source }

// Record queues one violation for export (see assertion.QueuedSink). It
// stamps ObservedUnixNano (when the caller has not): Record runs
// synchronously on the observe path, so the stamp is the observe-side end
// of the collector's end-to-end latency measurement.
func (s *HTTPSink) Record(v assertion.Violation) error {
	if v.ObservedUnixNano == 0 {
		v.ObservedUnixNano = time.Now().UnixNano()
	}
	return s.QueuedSink.Record(v)
}

// Close drains the queue (delivering or counting every queued violation),
// stops the shipper and returns the first delivery error. A shipper
// asleep in a retry wait wakes at once, and later waits are skipped, but
// every skipped wait still counts against its batch's Deadline: a closing
// shipper makes the attempts it would have made awake and no more.
func (s *HTTPSink) Close() error {
	s.closeOnce.Do(func() { close(s.closing) })
	return s.QueuedSink.Close()
}

// Dropped returns how many violations were discarded, for any reason —
// actual loss, per the DropCounter contract. Stats().Delivered + Dropped()
// equals the violations accepted by Record once Flush returns.
func (s *HTTPSink) Dropped() int64 { return s.Stats().Dropped }

// DropCounts splits a sink's dropped violations by reason.
type DropCounts struct {
	// Deadline: the batch's Deadline ran out on transient failures.
	Deadline int64 `json:"deadline"`
	// CircuitOpen: the batch shipped while the circuit was open, without
	// an attempt or as a failed probe.
	CircuitOpen int64 `json:"circuit_open"`
	// Rejected: the collector refused the payload (a 4xx other than 429),
	// or it could not be encoded at all.
	Rejected int64 `json:"rejected"`
	// NonFinite: the violation's Time or Severity was NaN or infinite,
	// which no wire can carry.
	NonFinite int64 `json:"non_finite"`
}

// HTTPSinkStats is a point-in-time snapshot of a sink's delivery
// telemetry, for exit summaries and scrape-time gauges.
type HTTPSinkStats struct {
	// Delivered is how many violations the collector has acknowledged.
	Delivered int64
	// Batches is how many batches have been acknowledged.
	Batches int64
	// Retries is how many delivery attempts were retries.
	Retries int64
	// Dropped is how many violations were discarded: the sum of Drops.
	Dropped int64
	Drops   DropCounts
	// Queued is how many violations are waiting in the record queue
	// right now (excluding the batch the shipper is delivering).
	Queued int
	// Wire is the codec batches currently ship with; WireFellBack flips
	// when the configured codec was refused and the sink renegotiated
	// down to JSON.
	Wire         string
	WireFellBack bool
	// CircuitOpen reports whether the circuit is open: batches drop
	// unsent but for one single-attempt probe per Deadline.
	CircuitOpen bool
}

// Stats returns a consistent-enough snapshot of the sink's delivery
// counters for reporting; each field is individually atomic.
func (s *HTTPSink) Stats() HTTPSinkStats {
	d := DropCounts{s.drops[dropDeadline].Load(), s.drops[dropCircuitOpen].Load(),
		s.drops[dropRejected].Load(), s.drops[dropNonFinite].Load()}
	wire := s.cfg.Wire
	if s.fellBack.Load() || wire == "" {
		wire = CodecJSON
	}
	return HTTPSinkStats{
		Delivered:    s.delivered.Load(),
		Batches:      s.batches.Load(),
		Retries:      s.retries.Load(),
		Dropped:      d.Deadline + d.CircuitOpen + d.Rejected + d.NonFinite,
		Drops:        d,
		Queued:       s.Queued(),
		Wire:         wire,
		WireFellBack: s.fellBack.Load(),
		CircuitOpen:  s.circuitOpen.Load(),
	}
}

// ship encodes one coalesced run (reflection-free, into the shipper's
// reused buffer) and carries out the actions next decides for it until
// the batch is acknowledged or dropped. It returns the batch's first
// failure: an encode error, else the delivery failure that dropped it.
func (s *HTTPSink) ship(violations []assertion.Violation) error {
	start := deliverHist.StartIf(true)
	defer deliverHist.Done(start)
	wb := Batch{
		Version:    WireVersion,
		Source:     s.cfg.Source,
		Seq:        s.seq.Add(1),
		Violations: violations,
	}
	encErr := s.encode(&wb)
	if len(wb.Violations) == 0 {
		return encErr
	}
	err, o := errCircuitOpen, outcome{status: batchStart}
	for {
		var act action
		act, s.state = next(s.state, o, time.Since(s.epoch), rand.Float64())
		s.circuitOpen.Store(s.state.dead >= circuitAfter)
		switch act.kind {
		case actAck:
			s.delivered.Add(int64(len(wb.Violations)))
			s.batches.Add(1)
			return encErr
		case actDrop:
			s.drops[act.reason].Add(int64(len(wb.Violations)))
			return cmp.Or(encErr, fmt.Errorf("export: deliver batch to %s (%s drop): %w", s.url, dropReasonNames[act.reason], err))
		case actRetry:
			s.retries.Add(1)
			s.sleep(act.wait)
		case actFallback:
			// The collector refused the codec, not the batch: latch onto
			// JSON and resend the same batch under the same Seq, so dedup
			// semantics are untouched.
			s.codec = jsonCodec{}
			s.fellBack.Store(true)
			if encErr = cmp.Or(encErr, s.encode(&wb)); len(wb.Violations) == 0 {
				return encErr
			}
		}
		o, err = s.post(s.buf, wb.Seq, act.timeout)
	}
}

var errCircuitOpen = errors.New("circuit open")

// encode sets s.buf to wb's wire form. Neither codec carries a
// non-finite Time or Severity: those violations are dropped, counted,
// and the rest encode under the same Seq — one bad value must not cost
// the violations beside it. wb.Violations is left holding what was
// encoded; it is empty when nothing could be. The error describes the
// first encode failure.
func (s *HTTPSink) encode(wb *Batch) error {
	body, err := s.codec.AppendBatch(s.buf[:0], *wb)
	if err == nil {
		s.buf = body
		return nil
	}
	err = fmt.Errorf("export: encode batch: %w", err)
	kept := wb.Violations[:0]
	for _, v := range wb.Violations {
		if finite(v.Time) && finite(v.Severity) {
			kept = append(kept, v)
		}
	}
	s.drops[dropNonFinite].Add(int64(len(wb.Violations) - len(kept)))
	if wb.Violations = kept; len(kept) > 0 {
		if body, rerr := s.codec.AppendBatch(s.buf[:0], *wb); rerr == nil {
			s.buf = body
			return err
		}
	}
	s.drops[dropRejected].Add(int64(len(kept)))
	wb.Violations = nil
	return err
}

// sleep waits d, or less once Close has begun: the rest of the wait is
// skipped but charged to the policy clock, so a closing shipper never
// spins on a fast-refusing port.
func (s *HTTPSink) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	began := time.Now()
	select {
	case <-t.C:
	case <-s.closing:
		s.epoch = s.epoch.Add(-max(0, d-time.Since(began)))
	}
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// post makes one delivery attempt bounded by timeout and reports what
// came back for next; the error describes a failed attempt.
func (s *HTTPSink) post(body []byte, seq uint64, timeout time.Duration) (outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	// NewHTTPSink parsed the URL, so building the request cannot fail.
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	req.Header.Set("Content-Type", s.codec.ContentType())
	// The batch identity rides the headers too, so the collector can
	// acknowledge an already-applied retry without reading the body —
	// even while its store is degraded, so the latch never wedges the
	// dedup window.
	req.Header.Set(SourceHeader, s.cfg.Source)
	req.Header.Set(SeqHeader, strconv.FormatUint(seq, 10))
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return outcome{}, err
	}
	// Drain before closing or the transport cannot return the connection
	// to its keep-alive pool, and every batch would pay a new handshake.
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	o := outcome{status: resp.StatusCode}
	if o.status/100 == 2 {
		return o, nil
	}
	// Only the delta-seconds Retry-After is parsed (it is what the
	// collector sends); an HTTP-date or garbage value is ignored.
	if secs, perr := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); perr == nil && secs > 0 {
		o.retryAfter = time.Duration(secs) * time.Second
	}
	return o, fmt.Errorf("collector returned %s", resp.Status)
}

// The delivery policy. next is the whole decision of what the shipper
// does with a batch: ship reports each outcome and carries out the
// action next returns. next is pure — time arrives only as now and
// randomness only as jitter — so a test can enumerate outcome sequences
// with no network and no sleeps.

// outcome is what happened last: a batch starting, or one attempt's
// answer. status is the HTTP status, or 0 when no answer came (a
// timeout or a refused connection).
type outcome struct {
	status     int
	retryAfter time.Duration // the collector's Retry-After, if it sent one
}

// batchStart is the outcome status that opens a new batch.
const batchStart = -1

// action is what the shipper does next with the batch.
type action struct {
	kind    actionKind
	wait    time.Duration // actRetry: sleep this long first
	timeout time.Duration // actSend, actRetry, actFallback: the attempt's bound
	reason  dropReason    // actDrop
}

type actionKind uint8

const (
	actSend     actionKind = iota // the batch's first attempt (the probe, while the circuit is open)
	actRetry                      // wait, then attempt again
	actFallback                   // re-encode as JSON, resend under the same Seq
	actAck                        // delivered
	actDrop                       // dropped, counted under reason
)

type dropReason uint8

const (
	dropDeadline dropReason = iota
	dropCircuitOpen
	dropRejected
	dropNonFinite
	numDropReasons
)

var dropReasonNames = [numDropReasons]string{"deadline", "circuit_open", "rejected", "non_finite"}

// deliveryState is next's memory: the batch in flight and the collector's
// recent record.
type deliveryState struct {
	deadline  time.Duration // the one knob
	json      bool          // batches ship as JSON, configured or fallen back
	began     time.Duration // when the batch in flight started
	step      time.Duration // the backoff ladder's next step for the batch in flight
	probing   bool          // the batch in flight is the circuit's probe
	dead      int           // batches in a row dropped at their deadline; >= circuitAfter is an open circuit
	nextProbe time.Duration // while open, no attempt before this
}

// next returns what to do after outcome o at time now, and the state to
// pass with the following outcome. jitter in [0, 1] places each backoff
// within [50%, 100%] of its ladder step.
func next(st deliveryState, o outcome, now time.Duration, jitter float64) (action, deliveryState) {
	d := st.deadline
	switch code := o.status; {
	case code == batchStart:
		st.began, st.step, st.probing = now, d/200, st.dead >= circuitAfter
		if st.probing && now < st.nextProbe {
			return action{kind: actDrop, reason: dropCircuitOpen}, st
		}
		return action{kind: actSend, timeout: d / 2}, st
	case code/100 == 2 || code/100 == 4 && code != http.StatusTooManyRequests:
		// An answer that is not a transient failure proves the collector
		// alive: the circuit closes, and the batch is a probe no more.
		st.dead, st.probing = 0, false
		switch {
		case code/100 == 2:
			return action{kind: actAck}, st
		case !st.json && (code == http.StatusUnsupportedMediaType || code == http.StatusNotAcceptable || code == http.StatusBadRequest):
			// The collector may not speak this codec (415/406), or be a
			// pre-codec one that JSON-parsed a binary frame (400). Not
			// 413: the body was too big, and its JSON is no smaller.
			st.json = true
			return action{kind: actFallback, timeout: min(d/2, st.began+d-now)}, st
		}
		return action{kind: actDrop, reason: dropRejected}, st
	}
	// A transient failure: 429, 5xx, no answer, or any other status.
	if st.probing {
		st.nextProbe = now + d
		return action{kind: actDrop, reason: dropCircuitOpen}, st
	}
	wait := st.step/2 + time.Duration(jitter*float64(st.step/2))
	wait = max(wait, min(o.retryAfter, d/5))
	if now+wait >= st.began+d {
		st.dead++
		st.nextProbe = now + d
		return action{kind: actDrop, reason: dropDeadline}, st
	}
	st.step = min(2*st.step, d/5)
	return action{kind: actRetry, wait: wait, timeout: min(d/2, st.began+d-now-wait)}, st
}
