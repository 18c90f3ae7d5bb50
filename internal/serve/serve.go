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
	"github.com/vipsim/vip/internal/store"
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
	// CacheDir, when set, persists results content-addressed on disk.
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
	// StoreDir, when set, enables the durable job store: every job
	// lifecycle transition is persisted (length-prefixed, checksummed,
	// fsynced WAL — see internal/store) before it is acknowledged, and
	// boot replays the store, restoring finished jobs and re-enqueueing
	// interrupted ones. Empty keeps today's memory-only job table.
	StoreDir string
	// RetryBase and RetryCap bound the exponential backoff applied when
	// re-enqueueing interrupted jobs after a restart (defaults 1s and
	// 1m); MaxAttempts bounds the total dispatch attempts per job
	// (default 5) before it fails terminally instead of retrying
	// forever through a crash loop.
	RetryBase   time.Duration
	RetryCap    time.Duration
	MaxAttempts int
	// WarnLog receives one structured JSON line per durability warning
	// (store degradation, recovery summary). Defaults to os.Stderr.
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
	if c.RetryBase <= 0 {
		c.RetryBase = time.Second
	}
	if c.RetryCap <= 0 {
		c.RetryCap = time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
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

// Job is one submission's record.
type Job struct {
	ID     string `json:"id"`
	Hash   string `json:"scenario_hash"`
	Status string `json:"status"`
	// Cache reports how the result was obtained: "hit" (served from
	// cache), "miss" (fresh engine run), or "coalesced" (attached to an
	// identical in-flight run).
	Cache string `json:"cache,omitempty"`
	Error string `json:"error,omitempty"`
	// Attempts counts recovery re-dispatches (zero on the normal path);
	// Recovered marks a job restored or re-run from the durable store
	// after a restart.
	Attempts  int  `json:"attempts,omitempty"`
	Recovered bool `json:"recovered,omitempty"`

	report     []byte
	reqJSON    []byte // original wire submission, for recovery re-lowering
	canon      []byte // canonical scenario bytes pinned at acceptance
	seq        uint64
	completing bool // set by the (single) finalizer before done closes
	done       chan struct{}
	// durable, when non-nil, closes once the admitting request has
	// persisted the job record; a request that coalesces onto the job
	// waits for it before answering, so no client learns of a job a
	// crash could still lose. Nil for jobs that never coalesce (cache
	// hits) and for jobs replayed from the store.
	durable chan struct{}
	created time.Time
	started time.Time // first worker dispatch (zero for cache fast path)
	ended   time.Time // completion, whatever the outcome
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
	// requests, the wait budget (default Config.SyncDeadline).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
}

// scenario lowers the wire request to a vip.Scenario.
func (r SimRequest) scenario() (vip.Scenario, error) {
	sys := vip.SystemVIP
	if r.System != "" {
		var err error
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
	if r.FaultRate < 0 {
		return vip.Scenario{}, fmt.Errorf("fault_rate must be non-negative")
	}
	if r.FaultRate > 0 {
		f := vip.UniformFaults(r.FaultRate)
		f.Seed = r.FaultSeed
		f.DisableRecovery = r.FaultNoRecovery
		sc.Faults = f
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

	// store is the durable job store (nil without Config.StoreDir);
	// storeOpenErr records a boot-time open failure (the server then
	// runs degraded from the start).
	store        *store.Store
	storeOpenErr error

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job ids, oldest first, for pruning
	inflight map[string]*Job
	seq      uint64
	reqSeq   uint64
	depth    stats.Sample // queue depth observed at each admission

	// Durability state (guarded by mu). draining rejects new
	// submissions; storeDegraded is the open circuit breaker
	// (consecutive store I/O failures → memory-only mode).
	draining      bool
	storeDegraded bool
	storeErrs     int // consecutive store write failures

	// Serve counters (guarded by mu; rendered at /metrics scrape).
	shed         uint64
	runs         uint64
	coalesced    uint64
	syncReqs     uint64
	asyncReqs    uint64
	failures     uint64
	timeouts     uint64 // sync waits that hit their deadline (504)
	storeWrites  uint64 // job records durably written
	replayedJobs uint64 // job records restored at boot
	retries      uint64 // recovery re-enqueues scheduled

	accessMu sync.Mutex // serializes AccessLog writes

	srv *http.Server
	ln  net.Listener
}

// New builds a server and starts its worker pool. With Config.StoreDir
// set it also opens the durable job store and replays it — restoring
// finished job records and re-enqueueing interrupted jobs — before any
// request can be admitted. A store that fails to open leaves the server
// serving memory-only with the breaker open (see StoreOpenErr).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    cache.New(cfg.CacheEntries, cfg.CacheDir),
		pool:     parallel.NewPool(cfg.Workers, cfg.QueueDepth),
		hs:       metrics.NewHTTPServer(),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	// The pool's EDF deadlines are host unix-nanos (see handleSim); give
	// it the matching clock so late dispatches are counted.
	s.pool.SetClock(func() int64 { return now().UnixNano() })
	s.hs.OnScrape(s.promInstruments)
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, store.Options{})
		if err != nil {
			s.storeOpenErr = err
			s.storeDegraded = true
			s.warn("store_open_failed", map[string]any{
				"dir":    cfg.StoreDir,
				"error":  err.Error(),
				"action": "serving memory-only; accepted jobs will not survive a restart",
			})
		} else {
			s.store = st
			s.recoverJobs()
		}
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
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener (if started), drains the worker pool and
// releases the job store. For a graceful shutdown call Drain first;
// Close alone delivers still-queued tasks a cancelled context (their
// terminal failed state is persisted) and then closes the store.
func (s *Server) Close() error {
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	}
	s.pool.Close()
	if s.store != nil {
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
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

	// With the durable store enabled, pin what was accepted: the wire
	// request (recovery re-lowers it) and the canonical scenario bytes
	// (recovery verifies the re-lowering). Both ride on the job record.
	var reqJSON, canon []byte
	if s.store != nil {
		if reqJSON, err = json.Marshal(req); err != nil {
			httpError(w, http.StatusBadRequest, "re-encoding request: %v", err)
			return
		}
		if canon, err = sc.Canonical(); err != nil {
			httpError(w, http.StatusBadRequest, "canonicalizing scenario: %v", err)
			return
		}
	}

	deadline := s.cfg.SyncDeadline
	if async {
		deadline = s.cfg.BulkDeadline
	}
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS * float64(time.Millisecond))
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
		job := s.newJob(hash, reqJSON, canon)
		s.completeJob(job, body, "hit", nil)
		s.respond(w, r, job, async, body, "hit")
		return
	}
	rs.AddStage("cache", now().Sub(cacheStart).Nanoseconds())

	// Coalesce onto an identical in-flight run, or admit a new one. The
	// check and the registration are one critical section, so two
	// misses on one key cannot both run the engine.
	s.mu.Lock()
	job, joined := s.inflight[key]
	var pruned []string
	if joined {
		s.coalesced++
	} else {
		job, pruned = s.newJobLocked(hash, reqJSON, canon)
		job.durable = make(chan struct{})
		s.inflight[key] = job
	}
	s.mu.Unlock()
	if joined {
		if job.durable != nil {
			<-job.durable
		}
	} else {
		s.dropJobRecords(pruned)
		// Durability barrier: the accepted job is on disk before it is
		// queued or acknowledged, so a crash from here on cannot lose it.
		// The fsync runs outside s.mu; coalescers wait on job.durable.
		s.persistJob(job)
		close(job.durable)
		edf := now().Add(deadline).UnixNano()
		// The job is deliberately detached from the request context: the
		// result is content-addressed and future-useful even if this
		// client gives up, and coalesced waiters may still want it. Only
		// pool shutdown cancels a queued job.
		err := s.pool.Submit(context.Background(), edf, func(ctx context.Context) { s.runJob(ctx, job, key, sc) })
		if err != nil {
			s.mu.Lock()
			s.shed++
			delete(s.inflight, key)
			s.mu.Unlock()
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
			"deadline exceeded while queued/running; poll /v1/jobs/%s or retry", job.ID)
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
		status := jobStatus(job)
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"id":     job.ID,
			"status": status,
			"url":    "/v1/jobs/" + job.ID,
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

// jobStatus derives the externally visible state; the caller must hold
// s.mu (Status and Error are lock-guarded until done closes).
func jobStatus(job *Job) string {
	select {
	case <-job.done:
		if job.Error != "" {
			return StatusFailed
		}
		return StatusDone
	default:
		return job.Status
	}
}

// newJob registers a fresh job record, pruning the oldest finished
// records beyond the budget (pruned records also leave the store).
// reqJSON and canon are the persisted acceptance artifacts; both are
// nil when the durable store is disabled.
func (s *Server) newJob(hash string, reqJSON, canon []byte) *Job {
	s.mu.Lock()
	job, pruned := s.newJobLocked(hash, reqJSON, canon)
	s.mu.Unlock()
	s.dropJobRecords(pruned)
	return job
}

// newJobLocked is newJob for a caller that holds s.mu. It returns the
// ids of the records it pruned, which the caller drops from the store
// with dropJobRecords after releasing s.mu.
func (s *Server) newJobLocked(hash string, reqJSON, canon []byte) (*Job, []string) {
	s.seq++
	short := hash
	if len(short) > 12 {
		short = short[:12]
	}
	job := &Job{
		ID:      fmt.Sprintf("j%06d-%s", s.seq, short),
		Hash:    hash,
		Status:  StatusQueued,
		seq:     s.seq,
		reqJSON: reqJSON,
		canon:   canon,
		done:    make(chan struct{}),
		created: now(),
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.publishJobLocked(job, StatusQueued)
	var pruned []string
	for len(s.order) > s.cfg.MaxJobs {
		oldest := s.jobs[s.order[0]]
		if oldest != nil && jobStatus(oldest) == StatusQueued || oldest != nil && jobStatus(oldest) == StatusRunning {
			break // never prune live jobs
		}
		delete(s.jobs, s.order[0])
		pruned = append(pruned, s.order[0])
		s.order = s.order[1:]
	}
	return job, pruned
}

// dropJobRecords removes pruned job records from the store.
func (s *Server) dropJobRecords(ids []string) {
	for _, id := range ids {
		s.dropJobRecord(id)
	}
}

// runJob is the pool task: re-check the cache (an identical run may
// have landed while queued), run the engine, store and publish.
func (s *Server) runJob(ctx context.Context, job *Job, key string, sc vip.Scenario) {
	s.mu.Lock()
	job.Status = StatusRunning
	job.started = now()
	s.publishJobLocked(job, StatusRunning)
	s.mu.Unlock()
	s.persistJob(job) // a kill mid-run must replay as interrupted, not queued forever
	defer func() {
		s.mu.Lock()
		// Identity-guarded: a recovered duplicate of the same scenario
		// must not evict another job's in-flight registration.
		if s.inflight[key] == job {
			delete(s.inflight, key)
		}
		s.mu.Unlock()
	}()

	if err := ctx.Err(); err != nil {
		s.completeJob(job, nil, "", fmt.Errorf("cancelled before dispatch: %w", err))
		return
	}
	if body, ok := s.cache.Get(key); ok {
		s.completeJob(job, body, "hit", nil)
		return
	}
	body, err := s.cfg.Run(sc)
	if err != nil {
		s.completeJob(job, nil, "", err)
		return
	}
	s.mu.Lock()
	s.runs++
	s.mu.Unlock()
	s.cache.Put(key, body)
	s.completeJob(job, body, "miss", nil)
}

// completeJob finalizes a job exactly once. The terminal state is made
// durable before the done channel releases waiters, so a response a
// client observed can never be rolled back to "queued" by a crash —
// without holding s.mu across the store's fsync.
func (s *Server) completeJob(job *Job, body []byte, cacheState string, err error) {
	s.mu.Lock()
	if job.completing {
		s.mu.Unlock()
		return
	}
	job.completing = true
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
	s.mu.Unlock()
	s.persistJob(job)
	s.mu.Lock()
	s.publishJobLocked(job, job.Status)
	close(job.done)
	s.mu.Unlock()
}

// handleJob reports one job's status, embedding the report when done.
// Jobs restored from the durable store after a restart are annotated
// (recovered, attempts) in both the document and the request span, and
// their reports are re-attached lazily from the content-addressed cache.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.mu.Lock()
	if job.report == nil && job.Recovered && jobStatus(job) == StatusDone {
		// Restored before the cache was warm (or the memory LRU turned
		// over): the result is content-addressed, so fetch it now.
		if body, ok := s.cache.Get(cache.Key(job.Hash, vip.EngineVersion)); ok {
			job.report = body
		}
	}
	doc := map[string]any{
		"id":            job.ID,
		"scenario_hash": job.Hash,
		"status":        jobStatus(job),
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
	s.mu.Unlock()
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
	var storeStats *store.Stats
	if s.store != nil {
		st := s.store.Stats()
		storeStats = &st
	}
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
		"inflight":        len(s.inflight),
		"subscribers":     s.hs.Broker().Subscribers(),
		"engine_version":  vip.EngineVersion,
	}
	if s.cfg.StoreDir != "" {
		doc["store_degraded"] = s.storeDegraded
		doc["store_writes"] = s.storeWrites
		doc["replayed_jobs"] = s.replayedJobs
		doc["job_retries"] = s.retries
		if storeStats != nil {
			doc["store"] = *storeStats
		}
	}
	if s.draining {
		doc["draining"] = true
	}
	return doc
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
	var ss store.Stats
	if s.store != nil {
		ss = s.store.Stats()
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
		"serve.inflight_coalesced":  float64(len(s.inflight)),
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
	if s.cfg.StoreDir != "" {
		degraded := 0.0
		if s.storeDegraded {
			degraded = 1.0
		}
		draining := 0.0
		if s.draining {
			draining = 1.0
		}
		vals["serve.store.degraded"] = degraded
		vals["serve.draining"] = draining
		vals["serve.store.writes_total"] = float64(s.storeWrites)
		vals["serve.store.replayed_jobs"] = float64(s.replayedJobs)
		vals["serve.job_retries_total"] = float64(s.retries)
		vals["serve.store.keys"] = float64(ss.Keys)
		vals["serve.store.wal_bytes"] = float64(ss.WALBytes)
		vals["serve.store.syncs_total"] = float64(ss.Syncs)
		vals["serve.store.compactions_total"] = float64(ss.Compactions)
		vals["serve.store.cache_corrupt_total"] = float64(cs.Corrupt)
	}
	s.mu.Unlock()
	var b strings.Builder
	_ = metrics.WritePrometheus(&b, vals) //viplint:allow errcheckcodec -- strings.Builder writes cannot fail
	return []byte(b.String())
}
