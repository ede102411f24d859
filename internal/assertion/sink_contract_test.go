package assertion

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// lineCountWriter counts newline-terminated lines, so a test can check
// that every accepted violation either reached the writer or was counted
// as dropped.
type lineCountWriter struct {
	mu    sync.Mutex
	lines int64
}

func (w *lineCountWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.lines += int64(bytes.Count(p, []byte{'\n'}))
	w.mu.Unlock()
	return len(p), nil
}

// delivered is implemented by the per-case accounting check: given the
// number of violations Record accepted, it verifies none went missing.
type sinkContractCase struct {
	name string
	make func(t *testing.T) (Sink, func(t *testing.T, accepted int64))
}

// TestSinkRecordDuringCloseContract drives every Sink implementation
// through the same gauntlet under the race detector: many goroutines
// recording while Close lands mid-stream. The contract: no panic or
// deadlock, Record after Close returns ErrSinkClosed, Close is
// idempotent, and every violation Record accepted is either delivered or
// counted — never silently lost.
func TestSinkRecordDuringCloseContract(t *testing.T) {
	cases := []sinkContractCase{
		{"core", func(t *testing.T) (Sink, func(*testing.T, int64)) {
			var shipped atomic.Int64
			s := NewQueuedSink(64, 16, func(batch []Violation) error {
				shipped.Add(int64(len(batch)))
				return nil
			})
			return s, func(t *testing.T, accepted int64) {
				if got := shipped.Load(); got != accepted {
					t.Fatalf("ship was handed %d, want the %d accepted", got, accepted)
				}
			}
		}},
		{"jsonl", func(t *testing.T) (Sink, func(*testing.T, int64)) {
			w := &lineCountWriter{}
			s := newJSONLSink(w, 64)
			return s, func(t *testing.T, accepted int64) {
				w.mu.Lock()
				written := w.lines
				w.mu.Unlock()
				if got := written + s.Dropped(); got != accepted {
					t.Fatalf("written %d + dropped %d = %d, want the %d accepted", written, s.Dropped(), got, accepted)
				}
			}
		}},
		{"multi", func(t *testing.T) (Sink, func(*testing.T, int64)) {
			mem := &captureSink{}
			w := &lineCountWriter{}
			s := NewMultiSink(mem, newJSONLSink(w, 64))
			return s, func(t *testing.T, accepted int64) {
				if got := int64(mem.Len()); got != accepted {
					t.Fatalf("capture backend holds %d, want the %d accepted", got, accepted)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, check := tc.make(t)
			const goroutines, perG = 8, 400
			var accepted atomic.Int64
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					for i := 0; i < perG; i++ {
						err := s.Record(Violation{Assertion: "contract", SampleIndex: g*perG + i, Severity: 1})
						if err == nil {
							accepted.Add(1)
							continue
						}
						if !errors.Is(err, ErrSinkClosed) {
							t.Errorf("Record returned %v, want nil or ErrSinkClosed", err)
						}
						return // closed mid-stream: stop like a well-behaved producer
					}
				}(g)
			}
			closed := make(chan error, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				closed <- s.Close()
			}()
			close(start)
			wg.Wait()
			if err := <-closed; err != nil {
				t.Fatalf("Close during recording: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if err := s.Record(Violation{Assertion: "late"}); !errors.Is(err, ErrSinkClosed) {
				t.Fatalf("Record after Close = %v, want ErrSinkClosed", err)
			}
			check(t, accepted.Load())
		})
	}
}
