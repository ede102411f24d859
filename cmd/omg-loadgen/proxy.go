package main

import (
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"time"
)

// Fault-proxy modes. The sinks talk to the proxy; the proxy either
// forwards to the live collector or plays one of the collector's failure
// personas, so 429 storms, 5xx bursts and timeouts can be injected
// without touching the real process.
const (
	modePass      = "pass"
	modeReject429 = "reject429"
	modeReject500 = "reject500"
	modeTimeout   = "timeout"
)

// faultProxy is a reverse proxy in front of the collector whose backend
// address survives collector restarts (it is re-pointed at the new port)
// and whose mode switches per fault phase.
type faultProxy struct {
	ln      net.Listener
	backend atomic.Value // string: collector base URL
	mode    atomic.Value // string: one of the mode constants

	injected429  atomic.Int64
	injected500  atomic.Int64
	injectedHang atomic.Int64

	rp *httputil.ReverseProxy
}

func newFaultProxy(backendURL string) (*faultProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &faultProxy{ln: ln}
	p.backend.Store(backendURL)
	p.mode.Store(modePass)
	p.rp = &httputil.ReverseProxy{
		Director: func(req *http.Request) {
			if u, err := url.Parse(p.backend.Load().(string)); err == nil {
				req.URL.Scheme = u.Scheme
				req.URL.Host = u.Host
			}
		},
		// A dead backend (killed collector) answers 502: a transient
		// failure the sinks retry, exactly like a connection error.
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			http.Error(w, "proxy: "+err.Error(), http.StatusBadGateway)
		},
		ErrorLog: nil,
	}
	srv := &http.Server{Handler: http.HandlerFunc(p.serve), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	return p, nil
}

func (p *faultProxy) url() string         { return "http://" + p.ln.Addr().String() }
func (p *faultProxy) setBackend(u string) { p.backend.Store(u) }
func (p *faultProxy) setMode(mode string) { p.mode.Store(mode) }

func (p *faultProxy) serve(w http.ResponseWriter, r *http.Request) {
	switch p.mode.Load().(string) {
	case modeReject429:
		p.injected429.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "injected throttle", http.StatusTooManyRequests)
	case modeReject500:
		p.injected500.Add(1)
		http.Error(w, "injected server error", http.StatusInternalServerError)
	case modeTimeout:
		// Hold the request past the sinks' client timeout, then fail it:
		// the sender sees a timeout, never a response.
		p.injectedHang.Add(1)
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		http.Error(w, "injected timeout", http.StatusGatewayTimeout)
	default:
		p.rp.ServeHTTP(w, r)
	}
}
