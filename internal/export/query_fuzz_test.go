package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"omg/internal/assertion"
)

// FuzzHandleQuery drives the query endpoint with arbitrary parameter
// combinations: whatever the inputs, the handler must answer 200 (with a
// self-consistent body honouring the filters and the limit) or 400 (for
// an unparsable limit) — never panic, never another status — and a 200
// body must be byte-identical to the reference oracle's (see
// referenceQuery).
func FuzzHandleQuery(f *testing.F) {
	f.Add("a", "edge-01", "3")
	f.Add("", "", "")
	f.Add("never-fired", "cam-9", "0")
	f.Add("a", "", "-1")
	f.Add("b\x00", "日本語", "bogus")
	f.Add("a", "edge-00", "999999999999999999999")
	f.Add("", "", "2000000000") // must cost what the 15 retained cost, not what the limit asks
	f.Add("b", "edge-02", "2")  // both filters: the shorter posting list is walked
	f.Fuzz(func(t *testing.T, assertionName, stream, limitRaw string) {
		c := openCollector(t, CollectorConfig{Shards: 2})
		defer c.Close()
		fillFleet(c, 3, 1, 5)

		params := url.Values{}
		if assertionName != "" {
			params.Set("assertion", assertionName)
		}
		if stream != "" {
			params.Set("stream", stream)
		}
		if limitRaw != "" {
			params.Set("limit", limitRaw)
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/violations/query?"+params.Encode(), nil)
		rr := httptest.NewRecorder()
		c.Handler().ServeHTTP(rr, req)

		limit, limitErr := strconv.Atoi(limitRaw)
		wantBad := limitRaw != "" && (limitErr != nil || limit < 0)
		if wantBad {
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("limit %q: status %d, want 400", limitRaw, rr.Code)
			}
			return
		}
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d, want 200 (assertion=%q stream=%q limit=%q)",
				rr.Code, assertionName, stream, limitRaw)
		}
		var q QueryResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &q); err != nil {
			t.Fatalf("query body does not decode: %v\n%s", err, rr.Body.String())
		}
		if q.Count != len(q.Violations) || q.Violations == nil {
			t.Fatalf("count %d != %d violations (or nil array)", q.Count, len(q.Violations))
		}
		if limitRaw != "" && limit > 0 && q.Count > limit {
			t.Fatalf("returned %d violations over limit %d", q.Count, limit)
		}
		for _, v := range q.Violations {
			if assertionName != "" && v.Assertion != assertionName {
				t.Fatalf("assertion filter %q leaked %+v", assertionName, v)
			}
			if stream != "" && v.Stream != stream {
				t.Fatalf("stream filter %q leaked %+v", stream, v)
			}
		}
		if want := referenceBody(t, c, assertionName, stream, limit); !bytes.Equal(rr.Body.Bytes(), want) {
			t.Fatalf("assertion=%q stream=%q limit=%q\n got %s\nwant %s", assertionName, stream, limitRaw, rr.Body.Bytes(), want)
		}
	})
}

// declinedBatchBodies are bodies parseBatchJSON must leave to
// encoding/json: each strays from the shape AppendBatchJSON writes in one
// way, and each decodes (or fails) today as it always did.
var declinedBatchBodies = []string{
	` {"version":1,"violations":null}`,                                                           // leading whitespace
	`{"version":1,"seq":1,"source":"e","violations":null}`,                                       // reordered keys
	`{"version":1,"version":2,"violations":null}`,                                                // duplicate key
	`{"Version":1,"violations":null}`,                                                            // differently cased key
	`{"version":1,"extra":0,"violations":null}`,                                                  // unknown field
	`{"version":1,"violations":null,"seq":3}`,                                                    // a key after violations
	`{"version": 1,"violations":null}`,                                                           // whitespace inside
	`{"version":1,"source":"e\u0064ge","violations":null}`,                                       // an escape
	"{\"version\":1,\"source\":\"e\xffdge\",\"violations\":null}",                                // invalid UTF-8
	"{\"version\":1,\"source\":\"e\x01\",\"violations\":null}",                                   // a control byte
	`{"version":1.0,"violations":null}`,                                                          // 1.0 for an int
	`{"version":1e0,"violations":null}`,                                                          // an exponent for an int
	`{"version":01,"violations":null}`,                                                           // a leading zero
	`{"version":1,"seq":-1,"violations":null}`,                                                   // a negative uint
	`{"version":1,"seq":18446744073709551616,"violations":null}`,                                 // uint overflow
	`{"version":9223372036854775808,"violations":null}`,                                          // int overflow
	`{"version":1,"violations":[{"assertion":"a","sample_index":0,"time":1e400,"severity":1}]}`,  // float overflow
	`{"version":1,"violations":[{"assertion":"a","sample_index":0,"time":.5,"severity":1}]}`,     // not a JSON number
	`{"version":1,"violations":[{"assertion":"a","sample_index":0,"time":0x1p-2,"severity":1}]}`, // strconv, not JSON
	`{"version":1,"violations":[{"assertion":"a","sample_index":0,"time":1,"severity":+1}]}`,     // a plus sign
	`{"version":1,"violations":[{"assertion":"a","sample_index":0,"time":1,"severity":NaN}]}`,    // not JSON at all
	`{"version":1,"violations":[{"assertion":"a","time":1,"sample_index":0,"severity":1}]}`,      // violation keys reordered
	`{"version":1,"violations":[{"assertion":"a"}]}`,                                             // missing fields
	`{"version":1,"violations":[{"assertion":"a","sample_index":0,"time":1,"severity":1},]}`,     // a trailing comma
	`{"version":1,"violations":[ ]}`,                                                             // whitespace in the array
	`{"version":1,"violations":[]} {"version":1}`,                                                // trailing garbage
	`{"version":1,"violations":[]}x`,                                                             // trailing garbage
	`{"version":1,"violations":[{"assertion":"a","sample_index":0,"time":1,"severity":1}`,        // truncated
	`{"version":1,"violations":[{"assertion":"a","sample_index":0,"time":1,"severity":1,"ingest_unix":1.5}]}`,
	`not json`,
	``,
}

// referenceDecodeBatch is the JSON codec's decode before it had a parser
// of its own: encoding/json, then the version window.
func referenceDecodeBatch(data []byte) (Batch, error) {
	var b Batch
	if err := json.Unmarshal(data, &b); err != nil {
		return Batch{}, fmt.Errorf("export: decode batch: %w", err)
	}
	if err := checkBatchVersion(b.Version); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// checkDecodeBatch holds the JSON codec's DecodeBatch to the reference
// on one body: the same batch and the same error text. What
// parseBatchJSON takes, encoding/json must decode without error to a
// deeply equal batch, nil and empty violation lists kept apart. It
// reports whether the parser took the body.
func checkDecodeBatch(t *testing.T, body []byte) bool {
	t.Helper()
	got, gotErr := jsonCodec{}.DecodeBatch(body)
	want, wantErr := referenceDecodeBatch(body)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: DecodeBatch error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: DecodeBatch decoded\n %#v\nencoding/json decoded\n %#v", body, got, want)
	}
	var in assertion.Interner
	parsed, ok := parseBatchJSON(body, &in)
	if !ok {
		return false
	}
	var ref Batch
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatalf("%q: parsed, but encoding/json refuses it: %v", body, err)
	}
	if !reflect.DeepEqual(parsed, ref) {
		t.Fatalf("%q: parsed\n %#v\nencoding/json decoded\n %#v", body, parsed, ref)
	}
	return true
}

func TestParseBatchJSONDeclines(t *testing.T) {
	for _, body := range declinedBatchBodies {
		if checkDecodeBatch(t, []byte(body)) {
			t.Errorf("%q: parsed, want it left to encoding/json", body)
		}
	}
	for _, body := range []string{
		`{"version":1,"violations":null}`,
		`{"version":1,"violations":[]}` + " \t\r\n",
		`{"version":3,"source":"","seq":0,"violations":[]}`,
		`{"version":-0,"violations":[{"assertion":"","stream":"","sample_index":-0,"time":-0,"severity":1E-400,"ingest_unix":0,"observed_unix_nano":0}]}`,
		`{"version":2,"source":"日本 ","seq":18446744073709551615,"violations":[{"assertion":"a","stream":"s","sample_index":-9223372036854775808,"time":1.5e300,"severity":2.5,"ingest_unix":1,"observed_unix_nano":2},{"assertion":"b","sample_index":1,"time":0,"severity":1,"observed_unix_nano":-3}]}`,
	} {
		if !checkDecodeBatch(t, []byte(body)) {
			t.Errorf("%q: declined, want it parsed", body)
		}
	}
}

// FuzzDecodeBatch differentially fuzzes the JSON codec's DecodeBatch,
// which handleIngest runs on every JSON request body, against
// encoding/json (checkDecodeBatch): the same batch or the same error,
// whether or not the reflection-free parser took the body. A decoded
// batch is in the version window, and trailing bytes after the batch
// object are an error, not silently ignored.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`{"version":1,"source":"e","seq":1,"violations":[{"assertion":"a"}]}`))
	f.Add([]byte(`{"version":42}`))
	f.Add([]byte(`{"version":2,"source":"edge-1","seq":7,"violations":[{"assertion":"flicker","stream":"cam-0","sample_index":3,"time":0.1,"severity":2,"ingest_unix":1753800000,"observed_unix_nano":1753800000000000001},{"assertion":"agree","sample_index":4,"time":1e-7,"severity":1e21}]}`))
	f.Add([]byte(`{"version":1,"violations":[]}`))
	for _, body := range declinedBatchBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeBatch(t, body)
		b, err := jsonCodec{}.DecodeBatch(body)
		if err != nil {
			return
		}
		if b.Version < MinWireVersion || b.Version > WireVersion {
			t.Fatalf("decoded batch with version %d", b.Version)
		}
		if !json.Valid(body) {
			t.Fatalf("decoded %q, which is not one JSON value", body)
		}
	})
}
