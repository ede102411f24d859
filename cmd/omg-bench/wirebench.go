package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/export"
)

// This file prices the PR-9 wire-codec seam: the same violation stream
// ships through HTTPSinks on the JSON and binary wires to a live loopback
// collector (interleaved repetitions, best run kept), so BENCH_9.json
// records the e2e ingest throughput the codec actually buys — plus the
// decode microbenchmark (ns/op and allocs/op per codec) and the bytes one
// representative batch spends on the wire with and without compression.

// benchWireRow is one codec's e2e ingest measurement.
type benchWireRow struct {
	Codec            string  `json:"codec"`
	WallMs           float64 `json:"wall_ms"`
	ViolationsPerSec float64 `json:"violations_per_sec"`
	Batches          int64   `json:"batches"`
}

// benchWireDecode is one codec's decode microbenchmark over a
// representative 256-violation batch.
type benchWireDecode struct {
	Codec       string  `json:"codec"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BatchBytes  int     `json:"batch_bytes"`
}

// benchWireReport is the machine-readable shape written to BENCH_9.json.
type benchWireReport struct {
	Bench      string `json:"bench"`
	Quick      bool   `json:"quick"`
	Violations int    `json:"violations"`
	BatchMax   int    `json:"batch_max"`
	Senders    int    `json:"senders"`

	Ingest            []benchWireRow    `json:"ingest"`
	BinarySpeedupX    float64           `json:"binary_speedup_x"`
	Decode            []benchWireDecode `json:"decode"`
	CompressionRatioX float64           `json:"compression_ratio_x"`
}

// wireBenchViolations builds the shared violation stream: a realistic
// shape (few assertion and stream names, monotonic indices, noisy floats)
// rather than a compressor's best case.
func wireBenchViolations(n int) []assertion.Violation {
	vs := make([]assertion.Violation, n)
	names := []string{"lights", "flicker", "agree", "ocr"}
	for i := range vs {
		vs[i] = assertion.Violation{
			Assertion:        names[i%len(names)],
			Stream:           fmt.Sprintf("cam-%02d", i%8),
			SampleIndex:      i,
			Time:             float64(i) / 30,
			Severity:         1 + float64(i%5) + float64(i%7)/10,
			ObservedUnixNano: 1753800000_000000000 + int64(i)*33_366_700,
		}
	}
	return vs
}

// renderWireBench races the wire codecs e2e and writes outPath
// (machine-readable; "" skips the file).
func renderWireBench(quick bool, outPath string) (string, error) {
	n := 400_000
	reps := 3
	if quick {
		n = 40_000
		reps = 2
	}
	const senders, batchMax = 4, 512
	violations := wireBenchViolations(n)

	// drive ships the whole stream through `senders` concurrent HTTPSinks
	// on the named wire to one live collector, and returns the wall time
	// from first Record to last Flush. Delivery is verified, so the race
	// doubles as a smoke test that both codecs carry the stream intact.
	drive := func(wire string, compress bool) (time.Duration, int64, error) {
		collector, err := export.OpenCollector(export.CollectorConfig{Shards: senders})
		if err != nil {
			return 0, 0, err
		}
		defer collector.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0, err
		}
		srv := &http.Server{Handler: collector.Handler()}
		go srv.Serve(ln)
		defer srv.Close()

		sinks := make([]*export.HTTPSink, senders)
		for i := range sinks {
			if sinks[i], err = export.NewHTTPSink(export.HTTPSinkConfig{
				BaseURL:    "http://" + ln.Addr().String(),
				Source:     fmt.Sprintf("bench-edge-%02d", i),
				QueueDepth: 4096,
				BatchMax:   batchMax,
				Wire:       wire,
				Compress:   compress,
			}); err != nil {
				return 0, 0, err
			}
		}
		per := n / senders
		start := time.Now()
		var wg sync.WaitGroup
		errc := make(chan error, senders)
		for i, s := range sinks {
			wg.Add(1)
			go func(i int, s *export.HTTPSink) {
				defer wg.Done()
				for _, v := range violations[i*per : (i+1)*per] {
					if err := s.Record(v); err != nil {
						errc <- err
						return
					}
				}
				errc <- s.Close()
			}(i, s)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errc)
		for err := range errc {
			if err != nil {
				return 0, 0, fmt.Errorf("%s sender: %w", wire, err)
			}
		}
		var batches int64
		for _, s := range sinks {
			st := s.Stats()
			if st.WireFellBack {
				return 0, 0, fmt.Errorf("%s sender fell back to json against a codec-capable collector", wire)
			}
			batches += st.Batches
		}
		if got, want := collector.TotalFired(), per*senders; got != want {
			return 0, 0, fmt.Errorf("%s wire: collector ingested %d of %d violations", wire, got, want)
		}
		return elapsed, batches, nil
	}

	rep := benchWireReport{Bench: "wire", Quick: quick, Violations: n, BatchMax: batchMax, Senders: senders}
	// Interleaved repetitions, best (shortest) run kept, so scheduler
	// noise cancels instead of landing on one codec.
	best := map[string]benchWireRow{}
	for r := 0; r < reps; r++ {
		for _, w := range []struct {
			name     string
			wire     string
			compress bool
		}{
			{"json", export.CodecJSON, false},
			{"binary", export.CodecBinary, false},
			{"binary+deflate", export.CodecBinary, true},
		} {
			elapsed, batches, err := drive(w.wire, w.compress)
			if err != nil {
				return "", err
			}
			row, seen := best[w.name]
			if !seen || elapsed < time.Duration(row.WallMs*float64(time.Millisecond)) {
				best[w.name] = benchWireRow{
					Codec:            w.name,
					WallMs:           float64(elapsed.Nanoseconds()) / 1e6,
					ViolationsPerSec: float64(n) / elapsed.Seconds(),
					Batches:          batches,
				}
			}
		}
	}
	order := []string{"json", "binary", "binary+deflate"}
	for _, name := range order {
		rep.Ingest = append(rep.Ingest, best[name])
	}
	rep.BinarySpeedupX = best["binary"].ViolationsPerSec / best["json"].ViolationsPerSec

	// Decode microbenchmark: one representative full batch per codec,
	// decoded steady-state (pooled decoder and intern table warm).
	decodeBatch := export.Batch{Version: export.WireVersion, Source: "bench-edge-00", Seq: 1,
		Violations: violations[:256]}
	decN := 20_000
	if quick {
		decN = 2_000
	}
	var frameBytes = map[string]int{}
	for _, w := range []struct {
		name  string
		codec export.BatchCodec
	}{
		{"json", mustCodec(export.CodecJSON)},
		{"binary", &export.BinaryCodec{}},
		{"binary+deflate", &export.BinaryCodec{Compress: true}},
	} {
		frame, err := w.codec.AppendBatch(nil, decodeBatch)
		if err != nil {
			return "", err
		}
		frameBytes[w.name] = len(frame)
		for i := 0; i < 64; i++ { // warm pools and intern tables
			if _, err := w.codec.DecodeBatch(frame); err != nil {
				return "", fmt.Errorf("%s decode: %w", w.name, err)
			}
		}
		start := time.Now()
		for i := 0; i < decN; i++ {
			if _, err := w.codec.DecodeBatch(frame); err != nil {
				return "", err
			}
		}
		nsPerOp := float64(time.Since(start).Nanoseconds()) / float64(decN)
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := w.codec.DecodeBatch(frame); err != nil {
				panic(err)
			}
		})
		rep.Decode = append(rep.Decode, benchWireDecode{
			Codec: w.name, NsPerOp: nsPerOp, AllocsPerOp: allocs, BatchBytes: len(frame),
		})
	}
	rep.CompressionRatioX = float64(frameBytes["binary"]) / float64(frameBytes["binary+deflate"])

	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return "", fmt.Errorf("write %s: %w", outPath, err)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Wire codec race, %d violations through a live loopback collector (%d senders, batch %d):\n",
		n, senders, batchMax)
	fmt.Fprintf(&b, "  %-16s %10s %14s %8s\n", "wire", "wall", "violations/s", "batches")
	for _, name := range order {
		row := best[name]
		fmt.Fprintf(&b, "  %-16s %9.0fms %14.0f %8d\n", row.Codec, row.WallMs, row.ViolationsPerSec, row.Batches)
	}
	fmt.Fprintf(&b, "  binary ingest: %.2fx the JSON wire throughput\n\n", rep.BinarySpeedupX)
	fmt.Fprintf(&b, "Decode, one %d-violation batch (steady state):\n", len(decodeBatch.Violations))
	fmt.Fprintf(&b, "  %-16s %12s %12s %12s\n", "wire", "ns/op", "allocs/op", "bytes")
	for _, d := range rep.Decode {
		fmt.Fprintf(&b, "  %-16s %12.0f %12.1f %12d\n", d.Codec, d.NsPerOp, d.AllocsPerOp, d.BatchBytes)
	}
	fmt.Fprintf(&b, "  deflate: %.2fx fewer bytes on the wire than plain binary\n", rep.CompressionRatioX)
	if outPath != "" {
		fmt.Fprintf(&b, "  results written to %s\n", outPath)
	}
	return b.String(), nil
}

// mustCodec resolves a registered codec by name; the registry is
// populated at init, so a miss is a programming error.
func mustCodec(name string) export.BatchCodec {
	c, err := export.Codec(name)
	if err != nil {
		panic(err)
	}
	return c
}
