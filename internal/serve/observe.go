// The service's observability shell: wall-clock request spans with
// X-Request-Id propagation and a structured JSON access log, the
// /v1/sim/stream SSE feed (job lifecycle events plus periodic service
// snapshots), the /ready admission probe, and the optional pprof
// mounts. Everything here lives in the wall-clock domain — the
// deterministic sim-time span stream is internal/telemetry's job.

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/telemetry"
)

// reqSpanKey carries the request span through the handler context.
type reqSpanKey struct{}

// reqSpanFrom returns the request's span. Handlers invoked without the
// instrument wrapper (direct unit tests) get a discarded span instead
// of nil, so stage recording never needs a guard.
func reqSpanFrom(ctx context.Context) *telemetry.RequestSpan {
	if rs, ok := ctx.Value(reqSpanKey{}).(*telemetry.RequestSpan); ok {
		return rs
	}
	return &telemetry.RequestSpan{}
}

// statusWriter captures the response status for the request span while
// passing Flush through so SSE handlers keep streaming.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument wraps the mux with the per-request observability shell:
// every request is assigned (or inherits) an X-Request-Id, runs under a
// wall-clock telemetry.RequestSpan, and is written to the access log on
// completion.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			s.mu.Lock()
			s.reqSeq++
			id = fmt.Sprintf("r%06d", s.reqSeq)
			s.mu.Unlock()
		}
		rs := &telemetry.RequestSpan{ID: id, Method: r.Method, Path: r.URL.Path}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqSpanKey{}, rs)))
		rs.Status = sw.status
		if rs.Status == 0 {
			rs.Status = http.StatusOK // implicit 200 from the first Write
		}
		rs.TotalNS = now().Sub(start).Nanoseconds()
		s.logAccess(rs, start)
	})
}

// logAccess writes one JSON line per completed request.
func (s *Server) logAccess(rs *telemetry.RequestSpan, start time.Time) {
	if s.cfg.AccessLog == nil {
		return
	}
	line, err := rs.AccessLogLine(start.UTC().Format(time.RFC3339Nano))
	if err != nil {
		return
	}
	s.accessMu.Lock()
	_, _ = s.cfg.AccessLog.Write(append(line, '\n'))
	s.accessMu.Unlock()
}

// handleReady is the admission-readiness probe, distinct from /healthz
// liveness: a live server answers 503 here when it should stop
// receiving new submissions — its EDF queue is full or it is draining
// for shutdown.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	// One snapshot under the pool's lock, so the probe can never observe
	// a torn transition (task gone from the queue, not yet counted
	// executing).
	ps := s.pool.Stats()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	ready := ps.Depth < ps.Cap && !draining
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	doc := map[string]any{
		"ready":       ready,
		"queue_depth": ps.Depth,
		"queue_cap":   ps.Cap,
		"inflight":    ps.Inflight,
		"workers":     s.cfg.Workers,
	}
	if draining {
		doc["draining"] = true
	}
	_ = json.NewEncoder(w).Encode(doc)
}

// publishJobLocked pushes one job lifecycle transition to the stream
// subscribers. The caller must hold s.mu — that is what serializes the
// queued → running → done/failed order every subscriber observes. The
// broker never blocks, so holding the lock across the publish is safe.
func (s *Server) publishJobLocked(job *Job, status string) {
	doc := map[string]any{
		"id":            job.Hash,
		"scenario_hash": job.Hash,
		"status":        status,
	}
	if job.Cache != "" {
		doc["cache"] = job.Cache
	}
	if job.Error != "" {
		doc["error"] = job.Error
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return
	}
	s.hs.Broker().Publish("job", b)
}

// handleStream serves GET /v1/sim/stream: a Server-Sent Events feed of
// the service's live state. The current snapshot is written
// synchronously before the handler blocks — a client that subscribes
// while a long job runs always receives at least one event before that
// job completes — then job lifecycle events arrive as they happen and a
// fresh snapshot every Config.StreamInterval.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := metrics.SSEPrepare(w)
	if !ok {
		return
	}
	ch, cancel := s.hs.Broker().Subscribe(0)
	defer cancel()
	writeSnapshot := func() bool {
		b, err := json.Marshal(s.statsDoc())
		if err != nil {
			return false
		}
		if _, err := w.Write(metrics.SSEFrame("snapshot", 0, b)); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !writeSnapshot() {
		return
	}
	var tick <-chan time.Time
	if iv := s.cfg.StreamInterval; iv > 0 {
		// Host-side pacing of an observability feed, not simulated time.
		t := time.NewTicker(iv) //viplint:allow simdeterminism -- host service stream pacing, never simulated state
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case frame := <-ch:
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		case <-tick:
			if !writeSnapshot() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// mountPprof exposes the standard runtime profiles under /debug/pprof/.
// net/http/pprof's init-time DefaultServeMux registration is useless
// here (the service builds its own mux), so the handlers are mounted
// explicitly — and only when Config.EnablePprof asks for them.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
