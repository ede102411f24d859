package assertion

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

const (
	// sinkDepth is a JSONLSink's queue depth.
	sinkDepth = 1024
	// sinkBatchMax bounds how many queued violations the worker coalesces
	// into a single Write call.
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
// reported by Err (and by Flush and Close), never silently discarded.
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

// JSONLSink is the buffered asynchronous JSONL backend. Violations are
// handed to a single worker goroutine over a bounded channel; the worker
// coalesces whatever is queued into one Write so encoding and I/O never
// run on the observe path. After the first
// write error the worker keeps draining (discarding output) so senders are
// never blocked by a dead sink — every violation discarded that way is
// counted by Dropped.
type JSONLSink struct {
	w io.Writer

	mu     sync.RWMutex // record (read side) vs close (write side)
	closed bool
	ch     chan Violation

	pending *waiter
	done    chan struct{}

	err  firstErr
	dead atomic.Bool // a Write failed; the worker only drains from now on

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
	s := &JSONLSink{
		w:       w,
		ch:      make(chan Violation, depth),
		pending: newWaiter(),
		done:    make(chan struct{}),
	}
	go s.run()
	return s
}

// Record queues one violation, blocking when the buffer is full
// (backpressure). It returns ErrSinkClosed once the sink has been closed.
func (s *JSONLSink) Record(v Violation) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrSinkClosed
	}
	s.pending.add(1)
	s.ch <- v
	return nil
}

// Flush blocks until everything queued so far has been written.
func (s *JSONLSink) Flush() error {
	s.pending.wait()
	return s.Err()
}

// Close drains the queue, stops the worker and returns the first error.
// It does not fsync: closing the writer is the caller's.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.ch)
	}
	<-s.done
	return s.Err()
}

// Err returns the first write or encoding error, if any.
func (s *JSONLSink) Err() error { return s.err.get() }

// Dropped returns how many violations were discarded instead of written:
// everything accepted after the first write error, the unwritten lines of
// the batch whose write failed, and any individually unmarshalable
// violations. Written and dropped always sum to the recorded total.
func (s *JSONLSink) Dropped() int64 { return s.dropped.Load() }

func (s *JSONLSink) setErr(err error) { s.err.set(err) }

func (s *JSONLSink) run() {
	defer close(s.done)
	// The worker owns one scratch buffer for its whole lifetime: lines are
	// appended by the reflection-free encoder, so a warmed-up sink writes
	// batches without allocating at all.
	buf := make([]byte, 0, 4096)
	for v := range s.ch {
		start := sinkWriteHist.StartIf(true)
		// Once a write has failed the sink only drains, so a dead sink
		// costs no encoding work for the recorder's remaining lifetime.
		// Encoding failures do NOT latch: one unmarshalable violation is
		// dropped (and counted) without killing the stream.
		dead := s.dead.Load()
		buf = buf[:0]
		n, encoded := 1, 0
		if !dead {
			encoded += s.encode(&buf, v)
		}
		// Coalesce whatever is already queued into this write.
	drain:
		for n < sinkBatchMax {
			select {
			case more, ok := <-s.ch:
				if !ok {
					break drain
				}
				if !dead {
					encoded += s.encode(&buf, more)
				}
				n++
			default:
				break drain
			}
		}
		if dead {
			s.dropped.Add(int64(n))
		} else {
			s.dropped.Add(int64(n - encoded)) // violations the encoder refused
			if len(buf) > 0 {
				if wn, err := s.w.Write(buf); err != nil {
					s.setErr(err)
					s.dead.Store(true)
					// A partial write (e.g. a disk filling mid-batch)
					// still landed complete lines: count as dropped only
					// the violations that did not make it out.
					wrote := bytes.Count(buf[:wn], []byte{'\n'})
					s.dropped.Add(int64(encoded - wrote))
				}
			}
		}
		sinkWriteHist.Done(start)
		s.pending.add(-n)
	}
}

// encode appends v to buf as one JSONL line, reporting 1 on success and 0
// when the violation could not be encoded (the error is retained). A
// failed encode leaves buf unextended — AppendViolationJSON never commits
// a partial object.
func (s *JSONLSink) encode(buf *[]byte, v Violation) int {
	b, err := AppendViolationJSON(*buf, v)
	if err != nil {
		s.setErr(err)
		return 0
	}
	*buf = append(b, '\n')
	return 1
}
