// Package serve virtualizes the simulator behind a multi-tenant HTTP
// service, the same move the paper makes one level down: where VIP
// multiplexes many flows over one IP with per-lane contexts, admission
// control and an EDF scheduler, vipserve multiplexes many clients over
// one simulator fleet with per-request jobs, a bounded admission queue
// and EDF dispatch (interactive requests carry near deadlines and
// overtake bulk sweeps).
//
// The service is built around content-addressed results: a submitted
// vip.Scenario is canonicalized and hashed (vip.Scenario.Hash), and the
// report JSON is cached under (scenario hash, engine version). Repeat
// submissions are served byte-identical from the cache without an
// engine run; identical in-flight submissions coalesce onto one run.
// Load beyond the queue bound is shed immediately with a retryable 429
// — the service's flow-control credit, never a blocked accept loop.
//
// A job is named by its scenario hash, so every submission of one
// scenario gets the same job id and a live job under a hash is that
// scenario's in-flight run. With a cache directory, an async
// acknowledgment is made durable by a pending marker beside the
// result slot (see recovery.go); the cache directory is the only
// thing the service persists.
//
// Endpoints: POST /v1/sim (sync, or ?async=1 returning a job id),
// GET /v1/jobs/{id}, GET /v1/sim/stream (SSE: job lifecycle events and
// periodic service snapshots), GET /v1/cache/stats, GET /ready
// (admission readiness, distinct from liveness), plus the metrics
// layer's /metrics and /healthz with the serve instruments appended at
// scrape time, and optionally net/http/pprof under /debug/pprof/.
//
// Every request is wrapped in a wall-clock telemetry.RequestSpan: it is
// tagged with an X-Request-Id, its stage latencies (admit, cache,
// queue, simulate) are reported in an X-Vip-Stages response header, and
// the full span (with the encode stage) is written as one JSON line to
// the configured access log. This is the service's wall-clock domain —
// deliberately separate from the engine's deterministic sim-time span
// stream (internal/telemetry.Recorder), which never reads a host clock.
//
// Everything here runs on host goroutines and the host clock — it is a
// network service, not a model — so it lives outside the simloop-policed
// engine packages, and its few wall-clock reads carry explicit viplint
// directives. Simulation runs themselves stay seed-deterministic no
// matter which worker executes them, which is exactly what makes the
// cache sound.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/vipsim/vip/internal/cache"
	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/parallel"
	"github.com/vipsim/vip/internal/stats"
	"github.com/vipsim/vip/internal/workload"
	"github.com/vipsim/vip/vip"
)

// now is the service's single wall-clock read point.
func now() time.Time {
	return time.Now() //viplint:allow simdeterminism -- host service clock (deadlines/uptime), never simulated state
}

// Config tunes the service; the zero value serves with defaults.
type Config struct {
	// Workers is the simulation worker count (default parallel.Jobs()).
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// shed with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the in-memory result LRU (default 256).
	CacheEntries int
	// CacheDir, when set, persists results content-addressed on disk,
	// together with the pending markers that let accepted async jobs
	// survive a crash: New re-enqueues every marker whose result is
	// missing.
	CacheDir string
	// SyncDeadline is the default wait budget and EDF deadline of a
	// synchronous request (default 60s). Requests may tighten it with
	// deadline_ms.
	SyncDeadline time.Duration
	// BulkDeadline is the EDF deadline horizon of async submissions
	// (default 15m): far enough out that any sync request dispatches
	// first.
	BulkDeadline time.Duration
	// MaxJobs bounds retained job records; the oldest finished jobs are
	// pruned beyond it (default 1024).
	MaxJobs int
	// Run computes the report JSON for a scenario. Defaults to running
	// vip.Simulate and serializing the report; tests substitute stubs to
	// control timing and output.
	Run func(vip.Scenario) ([]byte, error)
	// AccessLog, when non-nil, receives one structured JSON line per
	// completed request (the wall-clock request span). Writes are
	// serialized by the server.
	AccessLog io.Writer
	// StreamInterval is the period of the service snapshots pushed on
	// /v1/sim/stream between job events (default 1s). Negative disables
	// the periodic snapshots, leaving only the synchronous initial
	// snapshot and job lifecycle events — tests use that for a
	// deterministic event sequence.
	StreamInterval time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — the
	// production escape hatch for profiling a live service. Off by
	// default: the profiles expose internals.
	EnablePprof bool
	// WarnLog receives one structured JSON line per durability warning
	// (a failed marker write, the recovery summary). Defaults to
	// os.Stderr.
	WarnLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = parallel.Jobs()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.SyncDeadline <= 0 {
		c.SyncDeadline = 60 * time.Second
	}
	if c.BulkDeadline <= 0 {
		c.BulkDeadline = 15 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.Run == nil {
		c.Run = runScenario
	}
	if c.StreamInterval == 0 {
		c.StreamInterval = time.Second
	}
	return c
}

// runScenario is the default Run: one deterministic engine run,
// serialized to the canonical report JSON.
func runScenario(sc vip.Scenario) ([]byte, error) {
	res, err := vip.Simulate(sc)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteReportJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Job states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Job is one scenario's record, named by its hash (the job id). Its
// fields are guarded by Server.mu.
type Job struct {
	Hash   string `json:"scenario_hash"`
	Status string `json:"status"`
	// Cache reports how the result was obtained: "hit" (served from
	// cache), "miss" (fresh engine run), or "coalesced" (attached to an
	// identical in-flight run).
	Cache string `json:"cache,omitempty"`
	Error string `json:"error,omitempty"`
	// Attempts counts the dispatches a recovered job has started,
	// this one included (zero on the normal path); Recovered marks a
	// record rebuilt from the cache directory after a restart.
	Attempts  int  `json:"attempts,omitempty"`
	Recovered bool `json:"recovered,omitempty"`

	report  []byte
	done    chan struct{} // closed when the job leaves queued/running
	created time.Time
	started time.Time // first worker dispatch (zero for cache fast path)
	ended   time.Time // completion, whatever the outcome
}

// live reports whether the job is still queued or running; the caller
// holds Server.mu.
func (j *Job) live() bool {
	return j.Status == StatusQueued || j.Status == StatusRunning
}

// SimRequest is the wire form of a scenario submission. Every knob is
// optional except apps; defaults mirror vip.Scenario's. Two requests
// that spell the same scenario differently (workload id vs. expansion,
// explicit vs. implicit defaults) canonicalize to the same hash and
// share a cache line.
type SimRequest struct {
	System            string   `json:"system,omitempty"` // baseline|frameburst|iptoip|iptoipburst|vip (default vip)
	Apps              []string `json:"apps"`
	DurationMS        float64  `json:"duration_ms,omitempty"`
	Burst             int      `json:"burst,omitempty"`
	Seed              uint64   `json:"seed,omitempty"`
	IdealMemory       bool     `json:"ideal_memory,omitempty"`
	LaneBufferBytes   int      `json:"lane_buffer_bytes,omitempty"`
	MetricsIntervalMS float64  `json:"metrics_interval_ms,omitempty"`
	FaultRate         float64  `json:"fault_rate,omitempty"`
	FaultSeed         uint64   `json:"fault_seed,omitempty"`
	FaultNoRecovery   bool     `json:"fault_no_recovery,omitempty"`
	// DeadlineMS tightens this request's EDF deadline and, for sync
	// requests, the wait budget: the smaller of it and the default
	// (Config.SyncDeadline, or Config.BulkDeadline when async) applies.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
}

// Bounds on a request's size: past any of them scenario refuses the
// request before it is hashed, admitted or run. A job keeps running
// after its client leaves, so these cap what one request can cost.
const (
	// maxDurationMS caps the simulated time at 10 s; wall time grows
	// with it.
	maxDurationMS = 10_000
	// minMetricsIntervalMS floors a non-zero sampler period; the time
	// series grows as duration over interval.
	minMetricsIntervalMS = 1
	// maxApps caps the apps the request runs, with each workload id
	// expanded to its apps.
	maxApps = 8
)

// scenario lowers the wire request to a vip.Scenario.
func (r SimRequest) scenario() (vip.Scenario, error) {
	switch {
	case r.DurationMS > maxDurationMS:
		return vip.Scenario{}, fmt.Errorf("duration_ms must be at most %d (got %g)", maxDurationMS, r.DurationMS)
	case r.MetricsIntervalMS != 0 && r.MetricsIntervalMS < minMetricsIntervalMS:
		return vip.Scenario{}, fmt.Errorf("metrics_interval_ms must be 0 or at least %d (got %g)", minMetricsIntervalMS, r.MetricsIntervalMS)
	case len(r.Apps) > maxApps: // each id is at least one app
		return vip.Scenario{}, fmt.Errorf("apps lists %d ids; at most %d apps are allowed", len(r.Apps), maxApps)
	}
	apps, err := workload.Expand(r.Apps)
	if err != nil {
		return vip.Scenario{}, err
	}
	if len(apps) > maxApps {
		return vip.Scenario{}, fmt.Errorf("apps expand to %d apps; at most %d are allowed", len(apps), maxApps)
	}
	sys := vip.SystemVIP
	if r.System != "" {
		if sys, err = vip.ParseSystem(r.System); err != nil {
			return vip.Scenario{}, err
		}
	}
	sc := vip.Scenario{
		System:          sys,
		Apps:            r.Apps,
		Duration:        vip.Duration(r.DurationMS * 1e6),
		BurstSize:       r.Burst,
		Seed:            r.Seed,
		IdealMemory:     r.IdealMemory,
		LaneBufferBytes: r.LaneBufferBytes,
		MetricsInterval: vip.Duration(r.MetricsIntervalMS * 1e6),
	}
	if r.FaultRate != 0 {
		sc.Faults = &vip.Faults{Rate: r.FaultRate, Seed: r.FaultSeed, DisableRecovery: r.FaultNoRecovery}
	}
	return sc, nil
}

// Server is the simulation service. Construct with New; Close releases
// the workers.
type Server struct {
	cfg   Config
	cache *cache.Cache
	pool  *parallel.Pool
	hs    *metrics.HTTPServer

	mu     sync.Mutex
	jobs   map[string]*Job // by scenario hash
	order  []*Job          // registered records, oldest first, for pruning
	reqSeq uint64
	depth  stats.Sample // queue depth observed at each admission

	// draining rejects new submissions; backlog holds recovered runs
	// waiting for room in the admission queue (guarded by mu).
	draining bool
	backlog  []func(context.Context)

	// Serve counters (guarded by mu; rendered at /metrics scrape).
	shed         uint64
	runs         uint64
	coalesced    uint64
	syncReqs     uint64
	asyncReqs    uint64
	failures     uint64
	timeouts     uint64 // sync waits that hit their deadline (504)
	markerWrites uint64 // pending markers durably written
	replayedJobs uint64 // pending markers found at boot
	retries      uint64 // recovered jobs re-enqueued at boot

	accessMu sync.Mutex // serializes AccessLog writes

	srv *http.Server
}

// New builds a server and starts its worker pool. With Config.CacheDir
// set it first scans the pending markers there and re-enqueues the
// accepted jobs a previous process did not finish (see recoverPending).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: cache.New(cfg.CacheEntries, cfg.CacheDir),
		pool:  parallel.NewPool(cfg.Workers, cfg.QueueDepth),
		hs:    metrics.NewHTTPServer(),
		jobs:  make(map[string]*Job),
	}
	// The pool's EDF deadlines are host unix-nanos (see handleSim); give
	// it the matching clock so late dispatches are counted.
	s.pool.SetClock(func() int64 { return now().UnixNano() })
	s.hs.OnScrape(s.promInstruments)
	if cfg.CacheDir != "" {
		s.recoverPending()
	}
	return s
}

// Handler returns the service mux, wrapped in the observability shell
// (request ids, wall-clock request spans, access log).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sim", s.handleSim)
	mux.HandleFunc("GET /v1/sim/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/cache/stats", s.handleCacheStats)
	mux.HandleFunc("GET /ready", s.handleReady)
	mux.Handle("/metrics", s.hs.Handler())
	mux.Handle("/healthz", s.hs.Handler())
	if s.cfg.EnablePprof {
		mountPprof(mux)
	}
	return s.instrument(mux)
}

// Start binds the service to addr (":0" picks a free port) and serves
// in background goroutines; it returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.srv = &http.Server{Handler: s.Handler()}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener (if started) and drains the worker pool.
// For a graceful shutdown call Drain first; Close alone delivers
// still-queued tasks a cancelled context, which fails them in memory
// but leaves their pending markers for the next boot.
func (s *Server) Close() error {
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	}
	s.pool.Close()
	return err
}

// CacheStats exposes the result cache counters (for tests and the CLI).
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// EngineRuns reports how many fresh engine runs the service performed.
func (s *Server) EngineRuns() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs
}

// httpError writes a JSON error document.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": fmt.Sprintf(format, args...),
		"retryable": code == http.StatusTooManyRequests ||
			code == http.StatusGatewayTimeout ||
			code == http.StatusServiceUnavailable,
	})
}

// handleSim admits one scenario submission.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	rs := reqSpanFrom(r.Context())
	admitStart := now()
	var req SimRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	sc, err := req.scenario()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid scenario: %v", err)
		return
	}
	hash, err := sc.Hash()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid scenario: %v", err)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		// Graceful shutdown in progress: admission is closed (and /ready
		// already answers 503); a retry lands on a healthy peer.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting new submissions")
		return
	}
	async := r.URL.Query().Get("async") != ""
	key := cache.Key(hash, vip.EngineVersion)

	deadline := s.cfg.SyncDeadline
	if async {
		deadline = s.cfg.BulkDeadline
	}
	// deadline_ms only tightens. It is compared in milliseconds before
	// it is converted, so no value can wrap the duration or push the
	// EDF ordinal past the int64 nanosecond range.
	if ms := req.DeadlineMS; ms > 0 && ms < float64(deadline)/float64(time.Millisecond) {
		deadline = time.Duration(ms * float64(time.Millisecond))
	}
	rs.Hash = hash
	rs.Async = async
	rs.AddStage("admit", now().Sub(admitStart).Nanoseconds())

	s.mu.Lock()
	if async {
		s.asyncReqs++
	} else {
		s.syncReqs++
	}
	s.mu.Unlock()

	// Fast path: content-addressed replay, no queue, no engine.
	cacheStart := now()
	if body, ok := s.cache.Get(key); ok {
		rs.AddStage("cache", now().Sub(cacheStart).Nanoseconds())
		s.respond(w, r, s.hitJob(hash, body), async, body, "hit")
		return
	}
	rs.AddStage("cache", now().Sub(cacheStart).Nanoseconds())

	// A 202 is a promise that survives a crash, so an async miss puts its
	// pending marker on disk first — before anything is registered, so a
	// failed write leaves nothing behind. Sync requests write nothing:
	// they are never acknowledged before their result arrives.
	if async && s.cfg.CacheDir != "" {
		if err := s.writeMarker(key, marker{Request: req}); err != nil {
			s.warn("marker_write_failed", map[string]any{"scenario_hash": hash, "error": err.Error()})
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "cannot persist the job: %v", err)
			return
		}
	}

	// Coalesce onto the live job under this hash, or admit a new one. The
	// check and the registration are one critical section, so two misses
	// on one key cannot both run the engine.
	s.mu.Lock()
	job := s.jobs[hash]
	joined := job != nil && job.live()
	if joined {
		s.coalesced++
	} else {
		job = s.newJobLocked(hash)
		s.publishJobLocked(job, StatusQueued)
	}
	s.mu.Unlock()
	if !joined {
		// The job is deliberately detached from the request context: the
		// result is content-addressed and future-useful even if this
		// client gives up, and coalesced waiters may still want it. Only
		// pool shutdown cancels a queued job.
		edf := now().Add(deadline).UnixNano()
		err := s.pool.Submit(context.Background(), edf, func(ctx context.Context) { s.runJob(ctx, job, key, sc) })
		if err != nil {
			s.mu.Lock()
			s.shed++
			s.mu.Unlock()
			if async {
				s.cache.DropPending(key) // not accepted: no promise to keep
			}
			s.completeJob(job, nil, "", fmt.Errorf("admission queue full"))
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "admission queue full (%d queued); retry", s.pool.Cap())
			return
		}
		ps := s.pool.Stats()
		s.mu.Lock()
		s.depth.Add(float64(ps.Depth))
		s.mu.Unlock()
	}

	if async {
		s.respond(w, r, job, true, nil, "")
		return
	}

	// Sync: wait for the job within the request's deadline.
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	select {
	case <-job.done:
	case <-ctx.Done():
		s.mu.Lock()
		s.timeouts++
		s.mu.Unlock()
		httpError(w, http.StatusGatewayTimeout,
			"deadline exceeded while queued/running; poll /v1/jobs/%s or retry", hash)
		return
	}
	s.mu.Lock()
	body, errMsg, cacheState := job.report, job.Error, job.Cache
	// Stage latencies from the job record: queue is admission to first
	// worker dispatch, simulate is dispatch to completion. A job that
	// completed without dispatch (late cache hit) has neither.
	if !job.started.IsZero() {
		rs.AddStage("queue", job.started.Sub(job.created).Nanoseconds())
		if !job.ended.IsZero() {
			rs.AddStage("simulate", job.ended.Sub(job.started).Nanoseconds())
		}
	}
	s.mu.Unlock()
	if errMsg != "" {
		httpError(w, http.StatusInternalServerError, "%s", errMsg)
		return
	}
	if joined && cacheState == "miss" {
		cacheState = "coalesced"
	}
	s.respond(w, r, job, false, body, cacheState)
}

// respond writes the sync report or the async job stub. The stage
// breakdown collected so far is exposed in X-Vip-Stages; the encode
// stage is measured after the body write, so it appears only in the
// access log.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, job *Job, async bool, body []byte, cacheState string) {
	rs := reqSpanFrom(r.Context())
	w.Header().Set("X-Vip-Scenario-Hash", job.Hash)
	w.Header().Set("X-Vip-Engine-Version", vip.EngineVersion)
	if hdr := rs.StageHeader(); hdr != "" {
		w.Header().Set("X-Vip-Stages", hdr)
	}
	if async {
		s.mu.Lock()
		status := job.Status
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"id":     job.Hash,
			"status": status,
			"url":    "/v1/jobs/" + job.Hash,
		})
		return
	}
	if cacheState != "" {
		w.Header().Set("X-Vip-Cache", cacheState)
		rs.Cache = cacheState
	}
	w.Header().Set("Content-Type", "application/json")
	encodeStart := now()
	_, _ = w.Write(body)
	rs.AddStage("encode", now().Sub(encodeStart).Nanoseconds())
}

// hitJob returns the record a cache hit answers with: the one already
// under hash, or, when there is none (or only a failed one), a new
// record born done.
func (s *Server) hitJob(hash string, body []byte) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if job := s.jobs[hash]; job != nil && job.Status != StatusFailed {
		return job
	}
	job := s.newJobLocked(hash)
	job.Status, job.Cache, job.report, job.ended = StatusDone, "hit", body, job.created
	close(job.done)
	s.publishJobLocked(job, StatusDone)
	return job
}

// newJobLocked registers a queued record under hash, replacing any
// finished one, and prunes the oldest finished records beyond the
// budget. The caller holds s.mu.
func (s *Server) newJobLocked(hash string) *Job {
	job := &Job{Hash: hash, Status: StatusQueued, done: make(chan struct{}), created: now()}
	s.jobs[hash] = job
	s.order = append(s.order, job)
	for len(s.order) > s.cfg.MaxJobs && !s.order[0].live() {
		if old := s.order[0]; s.jobs[old.Hash] == old {
			delete(s.jobs, old.Hash)
		}
		s.order = s.order[1:]
	}
	return job
}

// runJob is the pool task: re-check the cache (an identical run may
// have landed while queued), run the engine, store and publish.
func (s *Server) runJob(ctx context.Context, job *Job, key string, sc vip.Scenario) {
	defer s.feedBacklog() // a finished run frees the queue room recovered runs wait for
	s.mu.Lock()
	job.Status = StatusRunning
	job.started = now()
	s.publishJobLocked(job, StatusRunning)
	s.mu.Unlock()

	if err := ctx.Err(); err != nil {
		// Shutdown, not a verdict on the scenario: the marker stays.
		s.completeJob(job, nil, "", fmt.Errorf("cancelled before dispatch: %w", err))
		return
	}
	if body, ok := s.cache.Get(key); ok {
		s.completeJob(job, body, "hit", nil)
		return
	}
	body, err := s.cfg.Run(sc)
	if err != nil {
		s.cache.DropPending(key) // a terminal failure is held in memory only
		s.completeJob(job, nil, "", err)
		return
	}
	s.mu.Lock()
	s.runs++
	s.mu.Unlock()
	if err := s.cache.Put(key, body); err == nil {
		s.cache.DropPending(key) // the result is durable: the promise is kept
	}
	s.completeJob(job, body, "miss", nil)
}

// completeJob finalizes a live job exactly once and releases its
// waiters.
func (s *Server) completeJob(job *Job, body []byte, cacheState string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !job.live() {
		return
	}
	if err != nil {
		job.Status = StatusFailed
		job.Error = err.Error()
		s.failures++
	} else {
		job.Status = StatusDone
		job.Cache = cacheState
		job.report = body
	}
	job.ended = now()
	s.publishJobLocked(job, job.Status)
	close(job.done)
}

// isHash reports whether id has the shape of a scenario hash, 64
// lowercase hex digits: the only job ids there are. It is checked
// before any lookup, so an outside id never becomes a file path.
func isHash(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleJob reports one job's status, embedding the report when done.
// A hash with no record in memory falls back to the cache directory: a
// result there is a job finished before a restart (or pruned since),
// and its rebuilt record is annotated recovered, in the document and
// in the request span.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !isHash(id) {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.mu.Lock()
	var job Job
	rec, ok := s.jobs[id]
	if ok {
		job = *rec
	}
	s.mu.Unlock()
	if !ok && s.cfg.CacheDir != "" {
		if body, hit := s.cache.Get(cache.Key(id, vip.EngineVersion)); hit {
			job, ok = Job{Hash: id, Status: StatusDone, Recovered: true, report: body}, true
		}
	}
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	doc := map[string]any{
		"id":            job.Hash,
		"scenario_hash": job.Hash,
		"status":        job.Status,
	}
	if job.Cache != "" {
		doc["cache"] = job.Cache
	}
	if job.Error != "" {
		doc["error"] = job.Error
	}
	if job.Recovered {
		doc["recovered"] = true
		rs := reqSpanFrom(r.Context())
		rs.Recovered = true
		rs.Attempts = job.Attempts
	}
	if job.Attempts > 0 {
		doc["attempts"] = job.Attempts
	}
	if job.report != nil {
		doc["report"] = json.RawMessage(job.report)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}

// handleCacheStats reports the cache and admission counters.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	doc := s.statsDoc()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(doc)
}

// statsDoc snapshots the service counters; it backs both
// /v1/cache/stats and the periodic /v1/sim/stream snapshots.
func (s *Server) statsDoc() map[string]any {
	// Snapshot the pool gauges in one call so depth+inflight are a
	// consistent pair, taken outside s.mu (the pool has its own
	// synchronization and must not nest under the server lock).
	ps := s.pool.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := map[string]any{
		"cache":           s.cache.Stats(),
		"engine_runs":     s.runs,
		"shed":            s.shed,
		"coalesced":       s.coalesced,
		"sync_requests":   s.syncReqs,
		"async_requests":  s.asyncReqs,
		"failures":        s.failures,
		"timeouts":        s.timeouts,
		"deadline_misses": ps.DeadlineMisses,
		"dispatched":      ps.Dispatched,
		"queue_depth":     ps.Depth,
		"queue_cap":       ps.Cap,
		"pool_inflight":   ps.Inflight,
		"inflight":        s.liveJobsLocked(),
		"subscribers":     s.hs.Broker().Subscribers(),
		"engine_version":  vip.EngineVersion,
	}
	if s.cfg.CacheDir != "" {
		doc["store_writes"] = s.markerWrites
		doc["replayed_jobs"] = s.replayedJobs
		doc["job_retries"] = s.retries
	}
	if s.draining {
		doc["draining"] = true
	}
	return doc
}

// liveJobsLocked counts the queued and running jobs; the caller holds
// s.mu.
func (s *Server) liveJobsLocked() int {
	n := 0
	for _, job := range s.jobs {
		if job.live() {
			n++
		}
	}
	return n
}

// promInstruments renders the serve counters for the /metrics scrape:
// cache traffic, admission outcomes, and the queue-depth distribution
// observed at admission time.
func (s *Server) promInstruments() []byte {
	cs := s.cache.Stats()
	hitRatio := 0.0
	if lookups := cs.Hits + cs.Misses; lookups > 0 {
		hitRatio = float64(cs.Hits) / float64(lookups)
	}
	ps := s.pool.Stats()
	s.mu.Lock()
	vals := map[string]float64{
		"serve.cache.hits":          float64(cs.Hits),
		"serve.cache.disk_hits":     float64(cs.DiskHits),
		"serve.cache.misses":        float64(cs.Misses),
		"serve.cache.evictions":     float64(cs.Evictions),
		"serve.cache.entries":       float64(cs.Entries),
		"serve.cache.bytes":         float64(cs.Bytes),
		"serve.cache.hit_ratio":     hitRatio,
		"serve.engine_runs":         float64(s.runs),
		"serve.shed_total":          float64(s.shed),
		"serve.coalesced":           float64(s.coalesced),
		"serve.inflight_coalesced":  float64(s.liveJobsLocked()),
		"serve.requests.sync":       float64(s.syncReqs),
		"serve.requests.async":      float64(s.asyncReqs),
		"serve.failures":            float64(s.failures),
		"serve.timeout_total":       float64(s.timeouts),
		"serve.deadline_miss_total": float64(ps.DeadlineMisses),
		"serve.dispatched_total":    float64(ps.Dispatched),
		"serve.queue.depth":         float64(ps.Depth),
		"serve.queue.cap":           float64(ps.Cap),
		"serve.queue.inflight":      float64(ps.Inflight),
		"serve.queue.depth_obs":     float64(s.depth.N()),
		"serve.queue.depth_p50":     s.depth.P50(),
		"serve.queue.depth_p95":     s.depth.P95(),
		"serve.queue.depth_max":     s.depth.Max(),
		"serve.queue.depth_mean":    s.depth.Mean(),
		"serve.stream.subscribers":  float64(s.hs.Broker().Subscribers()),
		"serve.stream.dropped":      float64(s.hs.Broker().Dropped()),
	}
	if s.cfg.CacheDir != "" {
		draining := 0.0
		if s.draining {
			draining = 1.0
		}
		vals["serve.draining"] = draining
		vals["serve.store.writes_total"] = float64(s.markerWrites)
		vals["serve.store.replayed_jobs"] = float64(s.replayedJobs)
		vals["serve.job_retries_total"] = float64(s.retries)
		vals["serve.store.cache_corrupt_total"] = float64(cs.Corrupt)
	}
	s.mu.Unlock()
	var b strings.Builder
	_ = metrics.WritePrometheus(&b, vals) //viplint:allow errcheckcodec -- strings.Builder writes cannot fail
	return []byte(b.String())
}
