package assertion

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// diffViolation checks the hand-rolled encoder against encoding/json for
// one violation: both must agree on whether v is encodable and, when it
// is, on every output byte.
func diffViolation(t *testing.T, v Violation) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, gotErr := AppendViolationJSON(nil, v)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error mismatch for %+v: json.Marshal err=%v, AppendViolationJSON err=%v", v, wantErr, gotErr)
	}
	if wantErr != nil {
		if len(got) != 0 {
			t.Fatalf("AppendViolationJSON extended the buffer despite error %v: %q", gotErr, got)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding mismatch for %+v:\n json: %s\n ours: %s", v, want, got)
	}
}

// FuzzAppendViolationJSON differentially fuzzes the reflection-free
// encoder against encoding/json over arbitrary violations: arbitrary
// (including invalid-UTF-8 and HTML-unsafe) assertion and stream names,
// negative indices, NaN/Inf/denormal severities and times, and the
// omitempty edges (empty stream, zero ingest and observed stamps).
func FuzzAppendViolationJSON(f *testing.F) {
	f.Add("flicker", "cam-0", 7, 0.23, 1.5, int64(0), int64(0))
	f.Add("", "", 0, 0.0, 0.0, int64(0), int64(0))
	f.Add("a\"b\\c\nd", "<script>&amp;", -3, -1.5, 2.5, int64(-7), int64(-9))
	f.Add("日本語の検査", "カメラ-1", 1<<40, 1e-7, 1e21, int64(1753800000), int64(1753800000123456789))
	f.Add("nan", "s", 1, math.NaN(), 1.0, int64(1), int64(2))
	f.Add("inf", "s", 1, 1.0, math.Inf(1), int64(1), int64(0))
	f.Add("neg-inf", "s", 1, math.Inf(-1), 1.0, int64(1), int64(3))
	f.Add("bad-utf8 \xff\xfe", "trunc \xc3", 2, 5e-7, 123456.789, int64(9), int64(1))
	f.Add("ctl \x00\x01\x1f\x7f", "seps \u2028\u2029", 2, -0.0, 1e300, int64(1), int64(0))
	f.Fuzz(func(t *testing.T, assertionName, stream string, idx int, tm, sev float64, ingest, observed int64) {
		diffViolation(t, Violation{
			Assertion:        assertionName,
			Stream:           stream,
			SampleIndex:      idx,
			Time:             tm,
			Severity:         sev,
			IngestUnix:       ingest,
			ObservedUnixNano: observed,
		})
	})
}

// TestAppendViolationJSONCoversAllFields fails when a field is added to
// Violation without teaching AppendViolationJSON and parseViolationJSON
// about it: every field of the violation below must be set, and it must
// round-trip through the hand encoder back into an equal struct, both via
// encoding/json and via the hand parser.
func TestAppendViolationJSONCoversAllFields(t *testing.T) {
	v := Violation{
		Assertion:        "field-cover",
		Stream:           "cam-1",
		SampleIndex:      42,
		Time:             1.25,
		Severity:         3.5,
		IngestUnix:       1753800000,
		ObservedUnixNano: 1753800000123456789,
	}
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Fatalf("Violation.%s is not set here: set it, and teach the JSON encoder and parser about it", rv.Type().Field(i).Name)
		}
	}
	data, err := AppendViolationJSON(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	var back Violation
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if back != v {
		t.Fatalf("round-trip lost data: %+v != %+v\nencoded: %s", back, v, data)
	}
	var parsed Violation
	var in Interner
	rest, ok := parseViolationJSON(data, &parsed, &in)
	if !ok || len(rest) != 0 {
		t.Fatalf("parseViolationJSON declined what AppendViolationJSON wrote (ok %v, %d bytes left): %s", ok, len(rest), data)
	}
	if parsed != v {
		t.Fatalf("parse round-trip lost data: %+v != %+v\nencoded: %s", parsed, v, data)
	}
}

func TestAppendViolationJSONReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 256)
	v := Violation{Assertion: "reuse", Stream: "s", SampleIndex: 1, Time: 2, Severity: 3}
	out, err := AppendViolationJSON(buf, v)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendViolationJSON reallocated despite sufficient capacity")
	}
	// A failed append must leave previously appended bytes intact.
	out = append(out, '\n')
	n := len(out)
	out2, err := AppendViolationJSON(out, Violation{Assertion: "bad", Severity: math.NaN()})
	if err == nil {
		t.Fatal("NaN severity must not encode")
	}
	if len(out2) != n {
		t.Fatalf("failed append left %d bytes, want %d", len(out2), n)
	}
}

func TestAppendViolationsJSONMatchesMarshal(t *testing.T) {
	cases := [][]Violation{
		nil,
		{},
		{{Assertion: "a", SampleIndex: 1, Time: 0.5, Severity: 1}},
		{
			{Assertion: "a", Stream: "s1", SampleIndex: 1, Time: 0.5, Severity: 1},
			{Assertion: "b", SampleIndex: 2, Time: 1.5, Severity: 2, IngestUnix: 123},
		},
	}
	for _, vs := range cases {
		want, err := json.Marshal(vs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendViolationsJSON(nil, vs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("array mismatch for %+v:\n json: %s\n ours: %s", vs, want, got)
		}
	}
	// An unencodable element must fail the whole array, like json.Marshal.
	if _, err := AppendViolationsJSON(nil, []Violation{{Assertion: "x", Severity: math.Inf(1)}}); err == nil {
		t.Fatal("Inf severity in array must not encode")
	}
}

// FuzzViolationRecord fuzzes the binary record codec — the disk store's
// record body and, minus the tag, the binary wire's per-violation layout —
// from both ends. Forwards: a violation encodes exactly when the JSON
// encoder would take it, and decodes back equal on every field; a torn
// body, a trailing byte and any other tag (the legacy '{' included) are
// refused. Backwards: arbitrary bytes never panic the decoder, and
// whatever it accepts is a finite violation the encoder takes back. Seeds
// are export.FuzzBinaryRoundTrip's corpus.
func FuzzViolationRecord(f *testing.F) {
	f.Add("a", "s", 0, 1.5, 2.5, int64(0), int64(0), uint16(0), []byte{ViolationRecordTag, 1, 'a', 0, 0})
	f.Add("flicker", "", 2, 1e-7, 1e21, int64(77), int64(1753800000_000000000), uint16(9), []byte(`{"assertion":"a"}`))
	f.Add("日本語", "<&>", 1, -1.0, 0.0, int64(-1), int64(-5), uint16(1), []byte{})
	f.Add("n", "s", 3, math.Inf(1), 1.0, int64(5), int64(9), uint16(100), []byte{ViolationRecordTag})
	f.Add("bad\xffname", "s\x00", -4, 0.5, math.NaN(), int64(math.MinInt64), int64(math.MaxInt64), uint16(3), []byte{0x02, 0, 0, 0})
	f.Fuzz(func(t *testing.T, name, stream string, idx int, tm, sev float64, ingest, observed int64, cut uint16, raw []byte) {
		v := Violation{Assertion: name, Stream: stream, SampleIndex: idx, Time: tm, Severity: sev, IngestUnix: ingest, ObservedUnixNano: observed}
		prefix := []byte("kept")
		body, err := AppendViolationRecord(prefix, &v)
		if _, jsonErr := AppendViolationJSON(nil, v); (err == nil) != (jsonErr == nil) {
			t.Fatalf("encoders disagree on %+v: record %v, JSON %v", v, err, jsonErr)
		}
		if err != nil {
			if string(body) != "kept" {
				t.Fatalf("failed encode extended the buffer to %q", body)
			}
		} else {
			body = body[len(prefix):]
			var in Interner
			var got Violation
			if err := decodeRecord(body, &got, &in); err != nil {
				t.Fatalf("decode of %x: %v", body, err)
			}
			if got != v {
				t.Fatalf("round trip changed the violation:\n got %+v\nwant %+v", got, v)
			}
			for _, bad := range [][]byte{
				body[:int(cut)%len(body)],                     // torn
				append(append([]byte{}, body...), 0xAA),       // trailing byte
				append([]byte{'{'}, body[1:]...),              // the legacy format's first byte
				append([]byte{byte(cut) | 0x02}, body[1:]...), // any tag but ours
			} {
				if err := decodeRecord(bad, &got, &in); !errors.Is(err, ErrViolationEncoding) {
					t.Fatalf("decode of damaged body %x: err = %v, want ErrViolationEncoding", bad, err)
				}
			}
		}

		var in Interner
		var wild Violation
		if err := decodeRecord(raw, &wild, &in); err != nil {
			if !errors.Is(err, ErrViolationEncoding) {
				t.Fatalf("decode of %x: err = %v, want ErrViolationEncoding", raw, err)
			}
			return
		}
		if !isFinite(wild.Time) || !isFinite(wild.Severity) {
			t.Fatalf("decode of %x yielded a non-finite violation: %+v", raw, wild)
		}
		again, err := AppendViolationRecord(nil, &wild)
		if err != nil {
			t.Fatalf("decoder accepted %x as %+v, which the encoder refuses: %v", raw, wild, err)
		}
		var back Violation
		if err := decodeRecord(again, &back, &in); err != nil || back != wild {
			t.Fatalf("re-encoded %+v decodes as %+v, %v", wild, back, err)
		}
	})
}

// decodeRecord decodes a whole record body into v, names and all, the way
// a reader that keeps names as strings would.
func decodeRecord(body []byte, v *Violation, in *Interner) error {
	name, stream, err := DecodeViolationRecord(body, v)
	if err == nil {
		v.Assertion, v.Stream = in.Intern(name), in.Intern(stream)
	}
	return err
}

// TestViolationBinaryCoversAllFields fails when a field is added to
// Violation without teaching the binary layout about it: every field is
// set, by reflection, to a value distinct from its zero, and the violation
// must come back equal from both the record and the bare layout.
func TestViolationBinaryCoversAllFields(t *testing.T) {
	var v Violation
	rv := reflect.ValueOf(&v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		switch field := rv.Field(i); field.Kind() {
		case reflect.String:
			field.SetString(fmt.Sprintf("field-%d", i))
		case reflect.Int, reflect.Int64:
			field.SetInt(int64(1753800000123456789 - i))
		case reflect.Float64:
			field.SetFloat(float64(i) + 0.25)
		default:
			t.Fatalf("Violation.%s has kind %s: teach this test, AppendViolationBinary and DecodeViolationBinary about it",
				rv.Type().Field(i).Name, field.Kind())
		}
	}
	var in Interner
	var back Violation
	body, err := AppendViolationRecord(nil, &v)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeRecord(body, &back, &in); err != nil || back != v {
		t.Fatalf("record round trip lost data: %+v != %+v (%v)", back, v, err)
	}
	back = Violation{}
	rest, err := DecodeViolationBinary(append(body[1:], "next"...), &back, &in)
	if err != nil || back != v || string(rest) != "next" {
		t.Fatalf("layout round trip: %+v, rest %q, %v; want %+v, \"next\"", back, rest, err, v)
	}
}
