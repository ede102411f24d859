package export

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
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

// FuzzDecodeBatch fuzzes the JSON codec's DecodeBatch, which handleIngest
// runs on every JSON request body: an arbitrary body either decodes into
// a well-versioned batch or fails cleanly, never panics, and trailing
// bytes after the batch object are an error, not silently ignored.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`{"version":1,"source":"e","seq":1,"violations":[{"assertion":"a"}]}`))
	f.Add([]byte(`{"version":42}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Add([]byte(`{"version":1,"violations":[]} {"version":1}`))
	codec, err := Codec(CodecJSON)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := codec.DecodeBatch(body)
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
