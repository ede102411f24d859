package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"omg/internal/assertion"
)

func TestCodecRegistry(t *testing.T) {
	for _, name := range []string{"", CodecJSON, CodecBinary} {
		c, err := Codec(name)
		if err != nil {
			t.Fatalf("Codec(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = CodecJSON
		}
		if c.Name() != want {
			t.Fatalf("Codec(%q).Name() = %q, want %q", name, c.Name(), want)
		}
	}
	if _, err := Codec("protobuf"); err == nil {
		t.Fatal("Codec(protobuf) should error")
	}
	names := CodecNames()
	if !reflect.DeepEqual(names, []string{CodecBinary, CodecJSON}) {
		t.Fatalf("CodecNames() = %v, want [binary json]", names)
	}
}

func TestCodecForContentType(t *testing.T) {
	cases := []struct {
		ct   string
		want string // codec name, "" = not ok
	}{
		{"", CodecJSON}, // pre-codec senders sent no or JSON content type
		{"application/json", CodecJSON},
		{"application/json; charset=utf-8", CodecJSON},
		{"APPLICATION/JSON", CodecJSON}, // media types are case-insensitive
		{ContentTypeBinary, CodecBinary},
		{ContentTypeBinary + "; v=1", CodecBinary},
		{"text/plain", ""},
		{"application/protobuf", ""},
		{"не/медиа тип", ""},
	}
	for _, tc := range cases {
		c, ok := CodecForContentType(tc.ct)
		if (tc.want == "") != !ok {
			t.Fatalf("CodecForContentType(%q) ok = %v, want %v", tc.ct, ok, tc.want != "")
		}
		if ok && c.Name() != tc.want {
			t.Fatalf("CodecForContentType(%q) = %q, want %q", tc.ct, c.Name(), tc.want)
		}
	}
}

func binRoundTripBatch() Batch {
	b := Batch{Version: WireVersion, Source: "edge-bin-01", Seq: 7}
	for i := 0; i < 100; i++ {
		b.Violations = append(b.Violations, assertion.Violation{
			Assertion:        []string{"flicker", "agree", "range"}[i%3],
			Stream:           []string{"cam-00", "cam-01", ""}[i%3],
			SampleIndex:      i,
			Time:             float64(i) / 30,
			Severity:         float64(i%5) + 0.5,
			IngestUnix:       1753800000 + int64(i),
			ObservedUnixNano: 1753800000_000000000 + int64(i)*1e6,
		})
	}
	return b
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	codec := binaryCodec{}
	want := binRoundTripBatch()
	frame, err := codec.AppendBatch(nil, want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// The plain frame, and the DEFLATE frame an older sender wrote of the
	// same batch, both decode to it.
	for _, f := range [][]byte{frame, deflateFrame(t, frame)} {
		got, err := codec.DecodeBatch(f)
		if err != nil {
			t.Fatalf("flags %#x: decode: %v", f[5], err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("flags %#x: round trip mismatch:\n got %+v\nwant %+v", f[5], got, want)
		}
	}
}

func TestBinaryCodecPreservesNilVsEmptyViolations(t *testing.T) {
	codec := binaryCodec{}
	for _, vs := range [][]assertion.Violation{nil, {}} {
		frame, err := codec.AppendBatch(nil, Batch{Version: WireVersion, Source: "s", Seq: 1, Violations: vs})
		if err != nil {
			t.Fatal(err)
		}
		got, err := codec.DecodeBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		if (vs == nil) != (got.Violations == nil) {
			t.Fatalf("nil-ness not preserved: sent %v, got %v", vs == nil, got.Violations == nil)
		}
		if len(got.Violations) != 0 {
			t.Fatalf("got %d violations, want 0", len(got.Violations))
		}
	}
}

func TestBinaryCodecRejectsWhatJSONRejects(t *testing.T) {
	codec := binaryCodec{}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := Batch{Version: WireVersion, Violations: []assertion.Violation{{Assertion: "a", Severity: bad}}}
		buf := []byte("prefix")
		out, err := codec.AppendBatch(buf, b)
		if err == nil {
			t.Fatalf("severity %v: encode should error like the JSON encoder does", bad)
		}
		if string(out) != "prefix" {
			t.Fatalf("severity %v: buffer extended despite error: %q", bad, out)
		}
	}
}

func TestBinaryCodecVersionWindow(t *testing.T) {
	codec := binaryCodec{}
	for v := 0; v <= WireVersion+1; v++ {
		frame, err := codec.AppendBatch(nil, Batch{Version: v, Source: "s", Seq: 1})
		if err != nil {
			t.Fatalf("version %d: encode: %v", v, err)
		}
		got, err := codec.DecodeBatch(frame)
		inWindow := v >= MinWireVersion && v <= WireVersion
		if inWindow {
			if err != nil {
				t.Fatalf("version %d: decode: %v", v, err)
			}
			if got.Version != v {
				t.Fatalf("version %d: decoded as %d", v, got.Version)
			}
		} else if !errors.Is(err, ErrWireVersion) {
			t.Fatalf("version %d: err = %v, want ErrWireVersion", v, err)
		}
	}
	if _, err := codec.AppendBatch(nil, Batch{Version: 256}); err == nil {
		t.Fatal("version 256 does not fit one byte; encode should error")
	}
}

func TestBinaryCodecRejectsMalformedFrames(t *testing.T) {
	codec := binaryCodec{}
	good, err := codec.AppendBatch(nil, binRoundTripBatch())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func([]byte) []byte) []byte {
		c := append([]byte(nil), good...)
		return mutate(c)
	}
	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:binHeaderLen-1],
		"truncated body": good[:len(good)-3],
		"bad magic":      corrupt(func(c []byte) []byte { c[0] = 'X'; return c }),
		"unknown flags":  corrupt(func(c []byte) []byte { c[5] |= 0x80; return c }),
		"flipped length": corrupt(func(c []byte) []byte { c[6] ^= 0xFF; return c }),
		"payload flip":   corrupt(func(c []byte) []byte { c[binHeaderLen+5] ^= 0xFF; return c }),
		"trailing byte":  append(append([]byte(nil), good...), 0x00),
	}
	for name, frame := range cases {
		if _, err := codec.DecodeBatch(frame); !errors.Is(err, ErrBinaryFrame) {
			t.Fatalf("%s: err = %v, want ErrBinaryFrame", name, err)
		}
	}
	// A hostile violation count must be rejected before it allocates.
	hostile, err := codec.AppendBatch(nil, Batch{Version: WireVersion, Source: "s", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the count varint (last payload byte, 0 = nil violations) to
	// a huge value and refresh the header so only the count is wrong.
	hostile = hostile[:len(hostile)-1]
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	fixFrameHeader(hostile)
	if _, err := codec.DecodeBatch(hostile); !errors.Is(err, ErrBinaryFrame) {
		t.Fatalf("hostile count: err = %v, want ErrBinaryFrame", err)
	}
}

// fixFrameHeader recomputes a frame's length and CRC fields after a test
// mutated the payload, so decode failures come from the mutation itself.
func fixFrameHeader(frame []byte) {
	payload := frame[binHeaderLen:]
	frame[6] = byte(len(payload))
	frame[7] = byte(len(payload) >> 8)
	frame[8] = byte(len(payload) >> 16)
	frame[9] = byte(len(payload) >> 24)
	sum := crc32.Checksum(payload, binCastagnoli)
	frame[10] = byte(sum)
	frame[11] = byte(sum >> 8)
	frame[12] = byte(sum >> 16)
	frame[13] = byte(sum >> 24)
}

func TestCollectorIngestsBinaryContentType(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	codec := binaryCodec{}
	b := mkBatch("edge-bin", 1, 3)
	frame, err := codec.AppendBatch(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	post := func() IngestResponse {
		resp, err := http.Post(srv.URL+IngestPath, ContentTypeBinary, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var ir IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		return ir
	}
	if ir := post(); ir.Accepted != 3 || ir.Duplicate {
		t.Fatalf("first binary post: %+v", ir)
	}
	if ir := post(); ir.Accepted != 0 || !ir.Duplicate {
		t.Fatalf("retried binary post should dedup: %+v", ir)
	}
	// Cross-codec dedup: the same (source, seq) re-posted as JSON is the
	// same batch — one dedup/store path for mixed fleets.
	resp, err := http.Post(srv.URL+IngestPath, ContentTypeJSON, jsonBody(t, b))
	if err != nil {
		t.Fatal(err)
	}
	var ir IngestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if ir.Accepted != 0 || !ir.Duplicate {
		t.Fatalf("cross-codec retry should dedup: %+v", ir)
	}
	if got := c.TotalFired(); got != 3 {
		t.Fatalf("TotalFired = %d, want 3", got)
	}
}

func TestCollectorIngest415ForUnknownContentType(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+IngestPath, "application/protobuf", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status = %d, want 415", resp.StatusCode)
	}
	var body UnsupportedMediaTypeResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("415 body must be parseable JSON: %v", err)
	}
	if body.Error == "" {
		t.Fatal("415 body has no error message")
	}
	want := []string{ContentTypeJSON, ContentTypeBinary}
	if !reflect.DeepEqual(body.AcceptedContentTypes, want) {
		t.Fatalf("accepted_content_types = %v, want %v", body.AcceptedContentTypes, want)
	}
}

// TestCollectorAcceptWireRestrictsCodecs: the Content-Type alone picks
// the codec. A well-formed binary frame under a media type no codec
// speaks is refused with 415 (TestCollectorIngest415ForUnknownContentType
// checks the body, TestCollectorCountsRejectionsByReason the count); the
// same frame under its own type, and a JSON batch with no Content-Type at
// all (what pre-codec senders posted), both land.
func TestCollectorAcceptWireRestrictsCodecs(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	frame, err := binaryCodec{}.AppendBatch(nil, mkBatch("edge", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+IngestPath, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("binary frame under an unknown Content-Type: status %d, want 415", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+IngestPath, ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary frame under its own Content-Type: status %d, want 200", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+IngestPath, jsonBody(t, mkBatch("edge", 2, 2)))
	resp, err = http.DefaultClient.Do(req) // no Content-Type header at all
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("header-less JSON post: status %d, want 200", resp.StatusCode)
	}
	if got := c.TotalFired(); got != 3 {
		t.Fatalf("TotalFired = %d, want 3", got)
	}
}

func TestCollectorCountsRejectionsByReason(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// content_type: a media type nothing speaks.
	resp, _ := http.Post(srv.URL+IngestPath, "text/csv", strings.NewReader("x"))
	resp.Body.Close()
	// decode: valid content type, garbage payload.
	resp, _ = http.Post(srv.URL+IngestPath, ContentTypeJSON, strings.NewReader("{"))
	resp.Body.Close()
	// version: a well-formed batch outside the acceptance window, on both
	// codecs.
	resp, _ = http.Post(srv.URL+IngestPath, ContentTypeJSON, strings.NewReader(`{"version":99,"violations":null}`))
	resp.Body.Close()
	frame, err := binaryCodec{}.AppendBatch(nil, Batch{Version: WireVersion + 1, Source: "s", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = http.Post(srv.URL+IngestPath, ContentTypeBinary, bytes.NewReader(frame))
	resp.Body.Close()

	metrics := getMetrics(t, srv.URL)
	for _, want := range []string{
		`omg_collector_ingest_rejected_total{reason="content_type"} 1`,
		`omg_collector_ingest_rejected_total{reason="decode"} 1`,
		`omg_collector_ingest_rejected_total{reason="version"} 2`,
		`omg_collector_ingest_rejected_total{reason="oversize"} 0`,
		"omg_collector_rejected_requests_total 4", // the persisted total is intact
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func getMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestHTTPSinkBinaryWireDeliversToCollector(t *testing.T) {
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	sink, err := NewHTTPSink(HTTPSinkConfig{BaseURL: srv.URL, Source: "edge-bin", Wire: CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := sink.Record(assertion.Violation{Assertion: "a", Stream: "s", SampleIndex: i, Severity: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalFired(); got != 10 {
		t.Fatalf("collector got %d violations, want 10", got)
	}
	st := sink.Stats()
	if st.Wire != CodecBinary || st.WireFellBack {
		t.Fatalf("stats = %+v, want binary wire with no fallback", st)
	}
	// The decode histogram carries the codec label.
	if m := getMetrics(t, srv.URL); !strings.Contains(m, `omg_collector_ingest_decode_seconds_count{codec="binary"}`) {
		t.Fatal("metrics missing binary-labeled decode histogram")
	}
}

// refuseBinary stands in for a collector that dispatches on Content-Type
// but is older than the binary wire: a binary frame gets its 415, with the
// parseable body, and everything else goes to next.
func refuseBinary(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if codec, ok := CodecForContentType(r.Header.Get("Content-Type")); ok && codec.Name() == CodecBinary {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnsupportedMediaType)
			json.NewEncoder(w).Encode(UnsupportedMediaTypeResponse{
				Error:                "unsupported Content-Type " + ContentTypeBinary,
				AcceptedContentTypes: []string{ContentTypeJSON},
			})
			return
		}
		next.ServeHTTP(w, r)
	})
}

func TestHTTPSinkFallsBackToJSONOn415(t *testing.T) {
	// A new binary edge against a JSON-only collector: the 415 (with its
	// parseable accepted-codecs body) makes the sink latch onto JSON and
	// re-send the same batch under the same seq — delivery stays
	// exactly-once, nothing is dropped.
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	srv := httptest.NewServer(refuseBinary(c.Handler()))
	defer srv.Close()

	sink, err := NewHTTPSink(HTTPSinkConfig{BaseURL: srv.URL, Source: "edge-bin", Wire: CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := sink.Record(assertion.Violation{Assertion: "a", SampleIndex: i, Severity: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v (fallback should have delivered)", err)
	}
	if got := c.TotalFired(); got != 8 {
		t.Fatalf("collector got %d violations, want 8", got)
	}
	st := sink.Stats()
	if !st.WireFellBack || st.Wire != CodecJSON {
		t.Fatalf("stats = %+v, want json after fallback", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d violations across the fallback", st.Dropped)
	}
	// Exactly-once held: one batch, no duplicates.
	if c.duplicates.Load() != 0 {
		t.Fatalf("fallback re-send was double-counted: %d duplicates", c.duplicates.Load())
	}
}

func TestHTTPSinkFallsBackToJSONOn400FromLegacyCollector(t *testing.T) {
	// A pre-codec collector has no Content-Type dispatch: it JSON-parses
	// whatever arrives and answers 400 for a binary frame. The sink must
	// read that as "codec refused" and renegotiate down to JSON.
	c := openCollector(t, CollectorConfig{})
	defer c.Close()
	legacy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b, err := jsonCodec{}.DecodeBatch(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		accepted, duplicate := c.Ingest(b)
		writeJSON(w, IngestResponse{Accepted: accepted, Duplicate: duplicate})
	})
	srv := httptest.NewServer(legacy)
	defer srv.Close()

	sink, err := NewHTTPSink(HTTPSinkConfig{BaseURL: srv.URL, Source: "edge-bin", Wire: CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := sink.Record(assertion.Violation{Assertion: "a", SampleIndex: i, Severity: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := c.TotalFired(); got != 5 {
		t.Fatalf("legacy collector got %d violations, want 5", got)
	}
	if st := sink.Stats(); !st.WireFellBack {
		t.Fatalf("stats = %+v, want fallback latched", st)
	}
}

func TestNewHTTPSinkRejectsBadWireConfig(t *testing.T) {
	if _, err := NewHTTPSink(HTTPSinkConfig{BaseURL: "http://x", Wire: "avro"}); err == nil {
		t.Fatal("unknown wire codec should error")
	}
}
