package metrics

import (
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"time"
)

// HTTPServer serves the latest published metrics snapshot over HTTP:
// GET /metrics returns the Prometheus text exposition, GET /healthz a
// small JSON liveness document, and GET /stream a live SSE feed that
// pushes every published snapshot — so a mid-run vipsim can be watched
// without polling. The simulation thread publishes with Publish; HTTP
// handlers run on their own goroutines, so the snapshot is guarded by a
// mutex — the only lock in the simulator, and it is touched only at
// sampler ticks, never on the event hot path.
type HTTPServer struct {
	mu       sync.Mutex
	prom     []byte
	onScrape func() []byte
	publishs uint64
	started  time.Time
	broker   *SSEBroker

	srv *http.Server
}

// NewHTTPServer returns a server with an empty snapshot. Call Start to
// bind it to an address, or mount Handler on an existing mux/httptest.
func NewHTTPServer() *HTTPServer {
	// The HTTP liveness endpoint is host-facing observability; its
	// uptime clock never touches simulated state.
	return &HTTPServer{
		started: time.Now(), //viplint:allow simdeterminism,walltime -- host-facing /healthz uptime only
		broker:  NewSSEBroker(),
	}
}

// Publish replaces the snapshot served at /metrics and pushes it to any
// /stream subscribers as a "metrics" event.
func (h *HTTPServer) Publish(prom []byte) {
	h.mu.Lock()
	h.prom = prom
	h.publishs++
	h.mu.Unlock()
	h.broker.Publish("metrics", prom)
}

// Broker exposes the SSE broker so embedders (vipserve) can publish
// their own event types onto the same /stream feed.
func (h *HTTPServer) Broker() *SSEBroker { return h.broker }

// OnScrape installs a callback whose return value is appended to the
// published snapshot on every GET /metrics. Push-model producers (the
// engine sampler) keep using Publish; pull-model producers whose
// counters move between samples — the vipserve request path — render
// their instruments at scrape time instead of re-publishing on every
// state change. A nil return contributes nothing.
func (h *HTTPServer) OnScrape(fn func() []byte) {
	h.mu.Lock()
	h.onScrape = fn
	h.mu.Unlock()
}

// Publishes reports how many snapshots have been published.
func (h *HTTPServer) Publishes() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.publishs
}

// Handler returns the mux serving /metrics, /healthz and /stream.
func (h *HTTPServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.handleMetrics)
	mux.HandleFunc("/healthz", h.handleHealthz)
	mux.HandleFunc("/stream", h.handleStream)
	return mux
}

func (h *HTTPServer) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	h.mu.Lock()
	body := h.prom
	scrape := h.onScrape
	h.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if len(body) == 0 && scrape == nil {
		body = []byte("# VIP simulator metrics\n# (no samples published yet)\n")
	}
	_, _ = w.Write(body)
	if scrape != nil {
		_, _ = w.Write(scrape())
	}
}

func (h *HTTPServer) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	h.mu.Lock()
	n := h.publishs
	h.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"snapshots": n,
		"uptime_s":  time.Since(h.started).Seconds(), //viplint:allow simdeterminism,walltime -- host-facing /healthz uptime only
	})
}

// handleStream serves one SSE subscriber: the current snapshot is sent
// synchronously before the handler blocks (a client that connects after
// the first sampler tick always receives at least one event, however
// short the remaining run), then every subsequent Publish is relayed
// until the client disconnects.
func (h *HTTPServer) handleStream(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	fl, ok := SSEPrepare(w)
	if !ok {
		return
	}
	ch, cancel := h.broker.Subscribe(0)
	defer cancel()
	h.mu.Lock()
	body := h.prom
	h.mu.Unlock()
	if len(body) == 0 {
		body = []byte("# (no samples published yet)\n")
	}
	_, _ = w.Write(SSEFrame("metrics", 0, body))
	fl.Flush()
	for {
		select {
		case frame := <-ch:
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		case <-req.Context().Done():
			return
		}
	}
}

// Start binds the server to addr (e.g. ":9090") and serves in a
// background goroutine. It returns the bound address, which is useful
// with ":0". Errors binding the listener are returned synchronously.
func (h *HTTPServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	h.srv = &http.Server{Handler: h.Handler()}
	go func() { _ = h.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener, if started.
func (h *HTTPServer) Close() error {
	if h.srv == nil {
		return nil
	}
	return h.srv.Close()
}
