package export

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unicode/utf8"

	"omg/internal/assertion"
)

// FuzzBinaryRoundTrip differentially fuzzes the binary codec against the
// JSON wire format over arbitrary batches: every violation field
// (including the e2e-age stamps IngestUnix and ObservedUnixNano that the
// weak-label and latency paths ride on), nil-vs-empty violation lists,
// seq and version edges, and plain as well as DEFLATE frames (these built
// by deflateFrame, as older senders wrote them). The binary round
// trip must reproduce the original batch exactly, agree with the JSON
// codec on which batches and versions are acceptable, and — when the JSON
// round trip is lossless (valid UTF-8 strings; JSON replaces invalid
// bytes with U+FFFD, binary is 8-bit clean) — be deep-equal to it. Torn,
// truncated, bit-flipped and trailing-garbage frames must all error
// without yielding a partial batch. A last leg hand-builds a CRC-valid
// frame around arbitrary float bits (ingest and observed, reinterpreted):
// every frame DecodeBatch accepts, AppendBatchJSON can encode.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add("edge-0", uint64(0), 0, "a", "s", 1.5, 2.5, int64(0), int64(0), WireVersion, false, uint16(0), uint16(0))
	f.Add("", uint64(1), 2, "flicker", "", 1e-7, 1e21, int64(77), int64(1753800000_000000000), MinWireVersion, true, uint16(9), uint16(3))
	f.Add("host-1-abc", uint64(1<<63), 1, "日本語", "<&>", -1.0, 0.0, int64(-1), int64(-5), WireVersion+1, false, uint16(1), uint16(50))
	f.Add("bad\xffsource", uint64(3), 3, "n", "s", math.Inf(1), 1.0, int64(5), int64(9), 0, true, uint16(100), uint16(14))
	f.Add("edge-1", uint64(4), 1, "a", "s", 0.5, 1.0, int64(math.Float64bits(math.NaN())), int64(math.Float64bits(math.Inf(-1))), WireVersion, false, uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, source string, seq uint64, nViolations int, name, stream string,
		tm, sev float64, ingest, observed int64, version int, compress bool, cut, flip uint16) {
		version &= 0xFF // stay inside the one-byte frame field; exercises out-of-window values too
		b := Batch{Version: version, Source: source, Seq: seq}
		nViolations %= 4
		if nViolations < 0 {
			nViolations = -nViolations
		}
		if nViolations > 0 {
			b.Violations = make([]assertion.Violation, nViolations)
			for i := range b.Violations {
				b.Violations[i] = assertion.Violation{
					Assertion:        name,
					Stream:           stream,
					SampleIndex:      i,
					Time:             tm,
					Severity:         sev,
					IngestUnix:       ingest,
					ObservedUnixNano: observed,
				}
			}
		}
		codec := binaryCodec{}
		jsonBytes, jsonErr := AppendBatchJSON(nil, b)
		frame, binErr := codec.AppendBatch(nil, b)
		if binErr == nil && compress {
			// An older sender's DEFLATE frame of the same batch.
			frame = deflateFrame(t, frame)
		}
		// The two codecs must accept exactly the same batches (NaN/Inf
		// rejection parity).
		if (jsonErr == nil) != (binErr == nil) {
			t.Fatalf("encode error mismatch: json=%v binary=%v", jsonErr, binErr)
		}
		if binErr != nil {
			if len(frame) != 0 {
				t.Fatalf("binary encode extended the buffer despite error %v", binErr)
			}
			return
		}

		got, err := codec.DecodeBatch(frame)
		jsonGot, jsonDecErr := jsonCodec{}.DecodeBatch(jsonBytes)
		inWindow := version >= MinWireVersion && version <= WireVersion
		if !inWindow {
			// Both wires must reject the same version window, with the
			// same sentinel.
			if !errors.Is(err, ErrWireVersion) || !errors.Is(jsonDecErr, ErrWireVersion) {
				t.Fatalf("version %d: binary err=%v json err=%v, want ErrWireVersion from both", version, err, jsonDecErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("binary round trip mutated the batch:\n got %+v\nwant %+v", got, b)
		}
		// Where JSON is lossless, the two round trips must be deep-equal.
		if jsonDecErr == nil && utf8.ValidString(source) && utf8.ValidString(name) && utf8.ValidString(stream) {
			if !reflect.DeepEqual(got, jsonGot) {
				t.Fatalf("binary and JSON round trips disagree:\n binary %+v\n json   %+v", got, jsonGot)
			}
		}

		// Torn/truncated frames: any strict prefix must error, never
		// partially ingest.
		if len(frame) > 0 {
			cutAt := int(cut) % len(frame)
			if _, err := codec.DecodeBatch(frame[:cutAt]); err == nil {
				t.Fatalf("decode of %d-byte prefix of a %d-byte frame succeeded", cutAt, len(frame))
			}
		}
		// A flipped payload byte must trip the CRC.
		if len(frame) > binHeaderLen {
			pos := binHeaderLen + int(flip)%(len(frame)-binHeaderLen)
			bad := append([]byte(nil), frame...)
			bad[pos] ^= 0xFF
			if _, err := codec.DecodeBatch(bad); !errors.Is(err, ErrBinaryFrame) {
				t.Fatalf("payload flip at %d: err = %v, want ErrBinaryFrame", pos, err)
			}
		}
		// Trailing garbage must error too.
		if _, err := codec.DecodeBatch(append(append([]byte(nil), frame...), 0xAA)); !errors.Is(err, ErrBinaryFrame) {
			t.Fatalf("trailing byte: err = %v, want ErrBinaryFrame", err)
		}
		// Float bits a sender outside this process chose: the decoder
		// takes exactly the values the encoders would have written.
		if len(b.Violations) > 0 {
			wild := b
			wild.Violations = append([]assertion.Violation(nil), b.Violations...)
			wild.Violations[len(wild.Violations)-1].Time = math.Float64frombits(uint64(ingest))
			wild.Violations[0].Severity = math.Float64frombits(uint64(observed))
			got, err := codec.DecodeBatch(rawBinaryFrame(wild))
			if err == nil {
				if _, err := AppendBatchJSON(nil, got); err != nil {
					t.Fatalf("DecodeBatch accepted a frame AppendBatchJSON cannot encode: %v", err)
				}
			} else if !errors.Is(err, ErrBinaryFrame) {
				t.Fatalf("wild floats: err = %v, want ErrBinaryFrame", err)
			}
		}
	})
}

// rawBinaryFrame hand-builds an uncompressed, CRC-valid frame around b the
// way a sender outside this process could: appendBinaryPayload's layout
// with none of AppendBatch's checks.
func rawBinaryFrame(b Batch) []byte {
	p := binary.AppendUvarint(nil, uint64(len(b.Source)))
	p = append(p, b.Source...)
	p = binary.AppendUvarint(p, b.Seq)
	p = binary.AppendUvarint(p, uint64(len(b.Violations))+1)
	for _, v := range b.Violations {
		p = binary.AppendUvarint(p, uint64(len(v.Assertion)))
		p = append(p, v.Assertion...)
		p = binary.AppendUvarint(p, uint64(len(v.Stream)))
		p = append(p, v.Stream...)
		p = binary.AppendVarint(p, int64(v.SampleIndex))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v.Time))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v.Severity))
		p = binary.AppendVarint(p, v.IngestUnix)
		p = binary.AppendVarint(p, v.ObservedUnixNano)
	}
	return frameAround(byte(b.Version), 0, p)
}

// deflateFrame rewrites a plain frame the way the DEFLATE encoder older
// senders ran wrote it: the payload compressed at flate.BestSpeed, flag
// bit 0 set, length and CRC over the compressed bytes.
func deflateFrame(t testing.TB, plain []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(plain[binHeaderLen:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return frameAround(plain[4], binFlagDeflate, buf.Bytes())
}

// frameAround wraps stored, the bytes a frame carries after its header,
// in a CRC-valid header with the given version and flags.
func frameAround(version, flags byte, stored []byte) []byte {
	frame := append([]byte(binMagic), version, flags)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(stored)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(stored, binCastagnoli))
	return append(frame, stored...)
}

// FuzzBinaryPayload fuzzes the binary frame decoder handleIngest runs on
// every application/x-omg-batch body, from raw bytes: the payload a sender
// outside this process chose, in a CRC-valid header, stored plain or
// flagged as DEFLATE-compressed. DecodeBatch must either refuse it with
// ErrBinaryFrame (or ErrWireVersion for a version outside the window), or
// return a batch that AppendBatchJSON can encode and that survives a
// plain binary round trip deep-equal.
func FuzzBinaryPayload(f *testing.F) {
	for _, name := range []string{"frame-plain.bin", "frame-deflate.bin"} {
		frame, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		deflate := frame[5]&binFlagDeflate != 0
		f.Add(frame[binHeaderLen:], deflate, frame[4])
		f.Add(frame[binHeaderLen:], !deflate, frame[4])
	}
	f.Add([]byte{}, false, uint8(WireVersion))
	f.Add([]byte{0, 0, 0}, false, uint8(WireVersion+1))
	f.Fuzz(func(t *testing.T, payload []byte, deflate bool, version uint8) {
		var flags byte
		if deflate {
			flags = binFlagDeflate
		}
		codec := binaryCodec{}
		got, err := codec.DecodeBatch(frameAround(version, flags, payload))
		if err != nil {
			if !errors.Is(err, ErrBinaryFrame) && !errors.Is(err, ErrWireVersion) {
				t.Fatalf("err = %v, want ErrBinaryFrame or ErrWireVersion", err)
			}
			return
		}
		if _, err := AppendBatchJSON(nil, got); err != nil {
			t.Fatalf("DecodeBatch accepted a batch AppendBatchJSON cannot encode: %v", err)
		}
		frame, err := codec.AppendBatch(nil, got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := codec.DecodeBatch(frame)
		if err != nil {
			t.Fatalf("decode of the re-encoded frame: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("binary round trip changed the batch:\n got %+v\nwant %+v", again, got)
		}
	})
}
