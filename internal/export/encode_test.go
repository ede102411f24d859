package export

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"omg/internal/assertion"
)

// FuzzAppendBatchJSON differentially fuzzes the reflection-free wire
// encoder against encoding/json over arbitrary batches: arbitrary source
// identities (including invalid UTF-8), seq edges (0 is omitempty), nil
// versus empty violation lists, and violations exercising every field
// including NaN/Inf rejection. The collector's parser closes the loop:
// every batch whose strings need no escape must come back through
// parseBatchJSON, not the encoding/json fallback, equal to the input.
func FuzzAppendBatchJSON(f *testing.F) {
	f.Add("edge-0", uint64(0), 0, "a", "s", 1.5, 2.5, int64(0))
	f.Add("", uint64(1), 2, "flicker", "", 1e-7, 1e21, int64(77))
	f.Add("host-1-abc", uint64(1<<63), 1, "日本語", "<&>", -1.0, 0.0, int64(-1))
	f.Add("bad\xffsource", uint64(3), 3, "n", "s", math.Inf(1), 1.0, int64(5))
	f.Fuzz(func(t *testing.T, source string, seq uint64, nViolations int, name, stream string, tm, sev float64, ingest int64) {
		b := Batch{Version: WireVersion, Source: source, Seq: seq}
		nViolations %= 5
		if nViolations < 0 {
			nViolations = -nViolations
		}
		if nViolations == 4 {
			b.Violations = []assertion.Violation{}
		} else if nViolations > 0 {
			b.Violations = make([]assertion.Violation, nViolations)
			for i := range b.Violations {
				b.Violations[i] = assertion.Violation{
					Assertion:        name,
					Stream:           stream,
					SampleIndex:      i,
					Time:             tm,
					Severity:         sev,
					IngestUnix:       ingest,
					ObservedUnixNano: ingest * int64(i),
				}
			}
		}
		want, wantErr := json.Marshal(b)
		got, gotErr := AppendBatchJSON(nil, b)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch for %+v: json.Marshal err=%v, AppendBatchJSON err=%v", b, wantErr, gotErr)
		}
		if wantErr != nil {
			if len(got) != 0 {
				t.Fatalf("AppendBatchJSON extended the buffer despite error %v: %q", gotErr, got)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding mismatch for %+v:\n json: %s\n ours: %s", b, want, got)
		}
		for _, s := range []string{source, name, stream} {
			if q := assertion.AppendJSONString(nil, s); len(q) != len(s)+2 {
				return // an escaped string is encoding/json's to decode
			}
		}
		var in assertion.Interner
		back, ok := parseBatchJSON(got, &in)
		if !ok {
			t.Fatalf("parseBatchJSON declined what AppendBatchJSON wrote: %s", got)
		}
		if !reflect.DeepEqual(back, b) {
			t.Fatalf("parseBatchJSON round trip:\n  in %#v\n out %#v\nfrom %s", b, back, got)
		}
	})
}

// TestEncodeBatchMatchesJSONEncoder locks the JSON codec to its wire
// contract: the bytes are exactly what encoding/json produces for the
// stamped batch, and they decode back through the codec.
func TestEncodeBatchMatchesJSONEncoder(t *testing.T) {
	b := Batch{
		Version: WireVersion,
		Source:  "edge-7",
		Seq:     42,
		Violations: []assertion.Violation{
			{Assertion: "flicker", Stream: "cam-0", SampleIndex: 9, Time: 0.3, Severity: 2},
			{Assertion: "agree", SampleIndex: 10, Time: 0.301, Severity: 0.5, IngestUnix: 1753800000},
		},
	}
	got, err := jsonCodec{}.AppendBatch(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded bytes diverged:\n json: %q\n ours: %q", want, got)
	}
	decoded, err := jsonCodec{}.DecodeBatch(got)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Source != b.Source || decoded.Seq != b.Seq || len(decoded.Violations) != len(b.Violations) {
		t.Fatalf("round-trip lost data: %+v", decoded)
	}
}

// TestEncodeBatchUnencodable verifies an unencodable batch reports the
// error and leaves the buffer unextended instead of writing a partial
// payload.
func TestEncodeBatchUnencodable(t *testing.T) {
	out, err := jsonCodec{}.AppendBatch([]byte("prefix"), Batch{Version: WireVersion, Violations: []assertion.Violation{{Assertion: "x", Severity: math.NaN()}}})
	if err == nil {
		t.Fatal("NaN severity must not encode")
	}
	if string(out) != "prefix" {
		t.Fatalf("partial payload written: %q", out)
	}
}
