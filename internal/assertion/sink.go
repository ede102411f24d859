package assertion

import (
	"bytes"
	"cmp"
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

const (
	// sinkDepth is a JSONLSink's queue depth.
	sinkDepth = 1024
	// sinkBatchMax bounds how many queued violations a JSONLSink's worker
	// coalesces into a single Write call.
	sinkBatchMax = 256
)

// ErrSinkClosed is returned by a Sink's Record method after Close.
var ErrSinkClosed = errors.New("assertion: violation sink is closed")

// Sink is a pluggable violation backend: the destination of a Recorder's
// streaming path. A deployment picks a JSONLSink for a local log or
// export.HTTPSink for a collector, and a MultiSink to fan out to both. The
// queryable in-memory view is the Recorder's own MemStore, not a sink;
// the durable, bounded violation history is the collector's data
// directory.
//
// Implementations must be safe for concurrent use. Record may be
// asynchronous: a nil return means the violation was accepted, not that it
// has been written out — call Flush before reading the backend's output.
// Errors a sink encounters after accepting a violation are retained and
// reported by Err (and by Flush and Close), never silently discarded. The
// queued form of this contract is QueuedSink, the one core under
// JSONLSink and export.HTTPSink: once Flush returns, what such a sink
// wrote or delivered plus what it dropped equals what Record accepted.
type Sink interface {
	// Record accepts one violation. It returns ErrSinkClosed after Close;
	// asynchronous backends report later write failures via Err, not here.
	Record(v Violation) error
	// Flush blocks until every accepted violation has been handed to the
	// underlying backend and returns the first error the sink has
	// encountered, if any. Flush does not fsync: the data has left the
	// sink, not necessarily reached stable storage.
	Flush() error
	// Close flushes, releases resources and returns the first error. It is
	// idempotent; Record returns ErrSinkClosed afterwards.
	Close() error
	// Err returns the first error the sink has encountered, if any,
	// without blocking for in-flight violations.
	Err() error
}

// DropCounter is implemented by sinks that can lose violations — after a
// write error, a refused delivery or to a bounded buffer — and count what
// they drop. Recorder.SinkDropped aggregates it.
type DropCounter interface {
	// Dropped returns how many violations this sink has discarded instead
	// of delivering.
	Dropped() int64
}

// firstErr retains the first non-nil error it is handed — the package's
// error-retention policy, shared by every sink backend and the Recorder.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// waiter is a counter that lets goroutines wait until in-flight work
// drains to zero. Unlike sync.WaitGroup it permits add(1) concurrent with
// wait, which is exactly the Flush-while-recording pattern.
type waiter struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func newWaiter() *waiter {
	w := &waiter{}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *waiter) add(delta int) {
	w.mu.Lock()
	w.n += delta
	if w.n <= 0 {
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

func (w *waiter) wait() {
	w.mu.Lock()
	for w.n > 0 {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

func (w *waiter) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// QueuedSink is the asynchronous half of the Sink contract, the one core
// under every queued backend (JSONLSink, export.HTTPSink). Record hands a
// violation to a bounded queue, blocking while it is full — explicit
// backpressure rather than silent loss — and returns ErrSinkClosed after
// Close. One worker goroutine coalesces whatever is queued into runs of
// at most batchMax violations and hands each run to the backend's ship
// step, so encoding and I/O never run on the observe path. Flush waits
// until every accepted violation has been through ship; Close drains the
// queue, stops the worker and is idempotent. The first error ship returns
// is retained for Err, Flush and Close. A backend embeds *QueuedSink and
// supplies only ship, which accounts for every violation it is handed:
// delivered, or counted as dropped.
type QueuedSink struct {
	ship func(batch []Violation) error

	mu     sync.RWMutex // record (read side) vs close (write side)
	closed bool
	ch     chan Violation

	pending *waiter
	done    chan struct{}

	err firstErr
}

// NewQueuedSink starts the worker of a sink queueing up to depth
// violations and shipping runs of at most batchMax. ship runs on the
// worker goroutine only, so the state it owns needs no lock; the slice it
// is handed is reused for the next run.
func NewQueuedSink(depth, batchMax int, ship func(batch []Violation) error) *QueuedSink {
	q := &QueuedSink{
		ship:    ship,
		ch:      make(chan Violation, depth),
		pending: newWaiter(),
		done:    make(chan struct{}),
	}
	go q.run(batchMax)
	return q
}

// Record queues one violation, blocking when the queue is full
// (backpressure). It returns ErrSinkClosed once the sink has been closed.
func (q *QueuedSink) Record(v Violation) error {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return ErrSinkClosed
	}
	q.pending.add(1)
	q.ch <- v
	return nil
}

// Flush blocks until every violation accepted so far has been shipped —
// written, delivered or counted as dropped — and returns the first error.
func (q *QueuedSink) Flush() error {
	q.pending.wait()
	return q.Err()
}

// Close drains the queue, stops the worker and returns the first error.
func (q *QueuedSink) Close() error {
	q.mu.Lock()
	already := q.closed
	q.closed = true
	q.mu.Unlock()
	if !already {
		close(q.ch)
	}
	<-q.done
	return q.Err()
}

// Err returns the first error ship has returned, if any.
func (q *QueuedSink) Err() error { return q.err.get() }

// Queued returns how many accepted violations wait in the queue, not
// counting the run being shipped.
func (q *QueuedSink) Queued() int { return len(q.ch) }

func (q *QueuedSink) run(batchMax int) {
	defer close(q.done)
	batch := make([]Violation, 0, batchMax)
	for v := range q.ch {
		batch = append(batch[:0], v)
	drain:
		for len(batch) < batchMax {
			select {
			case more, ok := <-q.ch:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		q.err.set(q.ship(batch))
		q.pending.add(-len(batch))
	}
}

// JSONLSink is the buffered asynchronous JSONL backend: a QueuedSink whose
// ship step encodes each run into one Write. After the first write error
// it keeps draining (discarding output) so senders are never blocked by a
// dead sink — every violation discarded that way is counted by Dropped.
// The sink never fsyncs: closing the writer is the caller's.
type JSONLSink struct {
	*QueuedSink
	w io.Writer

	// Owned by the worker: buf is the encode buffer, reused so a warmed-up
	// sink writes batches without allocating at all; dead latches once a
	// Write has failed.
	buf  []byte
	dead bool

	dropped atomic.Int64
}

// NewJSONLSink returns a sink encoding violations as one JSON object per
// line on w, with a queue of 1024 violations. When the queue is full,
// Record blocks until the worker catches up — explicit backpressure
// rather than silent loss.
func NewJSONLSink(w io.Writer) *JSONLSink { return newJSONLSink(w, sinkDepth) }

// newJSONLSink is NewJSONLSink with the queue depth given, so tests can
// exercise backpressure with a short queue.
func newJSONLSink(w io.Writer, depth int) *JSONLSink {
	s := &JSONLSink{w: w, buf: make([]byte, 0, 4096)}
	s.QueuedSink = NewQueuedSink(depth, sinkBatchMax, s.ship)
	return s
}

// Dropped returns how many violations were discarded instead of written:
// everything accepted after the first write error, the unwritten lines of
// the batch whose write failed, and any individually unmarshalable
// violations. Written and dropped always sum to the recorded total.
func (s *JSONLSink) Dropped() int64 { return s.dropped.Load() }

// ship encodes batch as JSONL lines and writes them in one Write.
func (s *JSONLSink) ship(batch []Violation) error {
	start := sinkWriteHist.StartIf(true)
	defer sinkWriteHist.Done(start)
	// Once a write has failed the sink only drains, so a dead sink costs
	// no encoding work for the recorder's remaining lifetime.
	if s.dead {
		s.dropped.Add(int64(len(batch)))
		return nil
	}
	var first error
	buf := s.buf[:0]
	for _, v := range batch {
		// Encoding failures do NOT latch: one unmarshalable violation is
		// dropped (and counted) without killing the stream. A failed
		// encode leaves buf unextended — AppendViolationJSON never commits
		// a partial object.
		b, err := AppendViolationJSON(buf, v)
		if err != nil {
			first = cmp.Or(first, err)
			s.dropped.Add(1)
			continue
		}
		buf = append(b, '\n')
	}
	if s.buf = buf; len(buf) == 0 {
		return first
	}
	wn, err := s.w.Write(buf)
	if err != nil {
		s.dead = true
		// A partial write (e.g. a disk filling mid-batch) still landed
		// complete lines: count as dropped only the lines that did not
		// make it out.
		s.dropped.Add(int64(bytes.Count(buf[wn:], []byte{'\n'})))
	}
	return cmp.Or(first, err)
}
