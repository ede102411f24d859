package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// spanHeader carries the client-side span's ID to the in-process twin, so
// the handler's span names the round trip that caused it as its parent.
const spanHeader = "X-Bench-Span"

// newHTTPClient returns the one client a run uses for everything. With a
// tracer, every round trip becomes a span.
func newHTTPClient(tr *tracer) *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	if tr != nil {
		rt = &spanTransport{next: rt, tr: tr}
	}
	return &http.Client{Transport: rt, Timeout: 60 * time.Second}
}

// spanTransport is the benchmark-owned http.RoundTripper of the traced
// run: one "client.roundtrip" span per request, from before the request is
// written until the response body has been read to its end.
type spanTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func batchID(h http.Header) (string, uint64) {
	seq, _ := strconv.ParseUint(h.Get(seqHeader), 10, 64)
	return h.Get(sourceHeader), seq
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	src, seq := batchID(r.Header)
	id := t.tr.start("client.roundtrip "+r.URL.Path, 0, src, seq)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.tr.end(id) }}
	return resp, nil
}

// spanBody ends the round-trip span when the caller is done with the
// response, at EOF or Close, whichever comes first. An SSE stream is
// exempt in practice: its span ends when the subscriber closes it.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// capturedFrame is one ingest request body as the twin received it.
type capturedFrame struct {
	contentType string
	body        []byte
}

// capture keeps the first max ingest frames of a traced run for the
// direct layer probes to replay.
type capture struct {
	mu     sync.Mutex
	max    int
	frames []capturedFrame
}

func (c *capture) add(ct string, body []byte) {
	c.mu.Lock()
	if len(c.frames) < c.max {
		c.frames = append(c.frames, capturedFrame{ct, body})
	}
	c.mu.Unlock()
}

// spanMiddleware is the benchmark-owned middleware around the twin's
// Collector.Handler(): one "export.handle" span per request, a child of
// the round trip named in the span header, sharing its batch ID. Ingest
// bodies are read up front (and kept, when capturing), so the span covers
// decode, admission, apply and the response, not the socket read.
func spanMiddleware(tr *tracer, cp *capture) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == ingestPath {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				if cp != nil {
					cp.add(r.Header.Get("Content-Type"), body)
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
			src, seq := batchID(r.Header)
			id := tr.start("export.handle "+r.URL.Path, parent, src, seq)
			next.ServeHTTP(w, r)
			tr.end(id)
		})
	}
}

// do sends a request, reads the whole answer and insists on 200. When out
// is not nil the body is decoded into it as JSON.
func do(c *http.Client, req *http.Request, out any) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %.200s", req.Method, req.URL.Path, resp.Status, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return nil, fmt.Errorf("%s %s: decode answer: %w", req.Method, req.URL.Path, err)
		}
	}
	return body, nil
}

// getBytes GETs a URL and returns the whole body of a 200 answer.
func getBytes(c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return do(c, req, nil)
}

func getJSON(c *http.Client, url string, out any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	_, err = do(c, req, out)
	return err
}

// postFrame posts one encoded wire frame with its batch identity in the
// headers, as HTTPSink does, and decodes the collector's answer.
func postFrame(c *http.Client, base, contentType, source string, seq uint64, body []byte) (ingestResponse, error) {
	var out ingestResponse
	req, err := http.NewRequest(http.MethodPost, base+ingestPath, bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(sourceHeader, source)
	req.Header.Set(seqHeader, strconv.FormatUint(seq, 10))
	_, err = do(c, req, &out)
	return out, err
}

// postJSON posts a JSON document and decodes a 200 JSON answer.
func postJSON(c *http.Client, url string, in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	_, err = do(c, req, out)
	return err
}
