// The durability layer: pending markers, boot-time recovery of the
// jobs they name, and graceful drain.
//
// The contract mirrors the paper's QoS story one layer up: the SoC
// model recovers chained IPs from injected faults without missing frame
// deadlines; vipserve recovers accepted jobs from process kills without
// losing them. A report depends only on the canonical scenario and the
// engine version, which together are already the result cache's key, so
// the cache directory holds all that recovery needs. Before an async
// job is acknowledged, a pending marker carrying its wire request is
// fsynced beside its result slot; the marker is removed once the result
// is on disk. At boot every marker without a result goes back through
// the EDF pool, one more attempt each time, until it finishes or
// reaches maxAttempts and fails terminally.

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/vipsim/vip/internal/cache"
	"github.com/vipsim/vip/vip"
)

// maxAttempts bounds the dispatches a recovered job gets, so a scenario
// that kills the server every time it runs fails terminally instead of
// crash-looping.
const maxAttempts = 5

// marker is a pending job's on-disk form: the wire request it was
// accepted as (recovery re-lowers it) and the dispatches it has started.
// An admission writes attempts 0; each boot that re-enqueues it adds
// one first.
type marker struct {
	Request  SimRequest `json:"request"`
	Attempts int        `json:"attempts"`
}

// lower decodes a marker and lowers its request, refusing one that no
// longer lowers to the key it was accepted under: running it would
// compute some other scenario's report.
func (m *marker) lower(key string, b []byte) (vip.Scenario, error) {
	if b == nil {
		return vip.Scenario{}, fmt.Errorf("pending marker torn or altered on disk")
	}
	if err := json.Unmarshal(b, m); err != nil {
		return vip.Scenario{}, fmt.Errorf("pending marker unreadable: %w", err)
	}
	sc, err := m.Request.scenario()
	if err != nil {
		return vip.Scenario{}, fmt.Errorf("stored request no longer lowers to a scenario: %w", err)
	}
	hash, err := sc.Hash()
	if err != nil {
		return vip.Scenario{}, fmt.Errorf("stored request no longer hashes: %w", err)
	}
	if got := cache.Key(hash, vip.EngineVersion); got != key {
		return vip.Scenario{}, fmt.Errorf(
			"stored request lowers to %s, accepted as %s; refusing to run the wrong simulation", got, key)
	}
	return sc, nil
}

// warn writes one structured JSON warning line to the configured warn
// log (default stderr). It never fails the caller.
func (s *Server) warn(event string, fields map[string]any) {
	w := s.cfg.WarnLog
	if w == nil {
		w = os.Stderr
	}
	doc := map[string]any{
		"level":     "warn",
		"component": "vipserve",
		"event":     event,
		"time":      now().UTC().Format(time.RFC3339Nano),
	}
	for k, v := range fields {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return
	}
	s.accessMu.Lock()
	_, _ = w.Write(append(b, '\n'))
	s.accessMu.Unlock()
}

// writeMarker durably writes key's pending marker.
func (s *Server) writeMarker(key string, m marker) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := s.cache.PutPending(key, b); err != nil {
		return err
	}
	s.mu.Lock()
	s.markerWrites++
	s.mu.Unlock()
	return nil
}

// recoverPending runs once, from New, before the server can admit
// anything. For each pending marker in the cache directory:
//   - a marker whose result exists is dropped: the job finished, and
//     GET /v1/jobs reads the result;
//   - a marker whose request no longer lowers to its key fails
//     terminally without running;
//   - a marker at maxAttempts fails terminally;
//   - every other marker is rewritten with one more attempt and its job
//     re-enqueued through the EDF pool.
//
// Terminal failures are held in memory only, and their markers removed.
func (s *Server) recoverPending() {
	markers := s.cache.Markers()
	var requeued, failed int
	for _, m := range markers {
		if _, ok := s.cache.Get(m.Key); ok {
			s.cache.DropPending(m.Key)
			continue
		}
		var mk marker
		sc, err := mk.lower(m.Key, m.Val)
		if err == nil && mk.Attempts >= maxAttempts {
			err = fmt.Errorf("interrupted %d times; retry budget exhausted", mk.Attempts)
		}
		hash, _, _ := strings.Cut(m.Key, "@")
		s.mu.Lock()
		job := s.newJobLocked(hash)
		job.Recovered = true
		job.Attempts = mk.Attempts
		s.mu.Unlock()
		if err != nil {
			s.cache.DropPending(m.Key)
			s.completeJob(job, nil, "", err)
			failed++
			continue
		}
		// The attempt is counted on disk before the run starts, so a job
		// that kills the server every time converges to a terminal
		// failure. Should the rewrite fail, the job still runs: its
		// marker, with the older count, keeps it durable.
		mk.Attempts++
		if err := s.writeMarker(m.Key, mk); err != nil {
			s.warn("marker_write_failed", map[string]any{"scenario_hash": hash, "error": err.Error()})
		}
		s.mu.Lock()
		job.Attempts = mk.Attempts
		s.backlog = append(s.backlog, func(ctx context.Context) { s.runJob(ctx, job, m.Key, sc) })
		s.mu.Unlock()
		requeued++
	}
	s.mu.Lock()
	s.replayedJobs = uint64(len(markers))
	s.retries = uint64(requeued)
	s.mu.Unlock()
	if len(markers) > 0 {
		s.warn("jobs_recovered", map[string]any{
			"markers":  len(markers),
			"finished": len(markers) - requeued - failed,
			"requeued": requeued,
			"failed":   failed,
		})
	}
	s.feedBacklog()
}

// feedBacklog moves recovered runs into the pool while its queue has
// room. A full queue costs no attempt: the run stays in the backlog,
// and every finished run (runJob defers this) tries again, so the
// backlog drains as fast as the pool does. Draining stops the feed;
// the markers bring the rest back at the next boot.
func (s *Server) feedBacklog() {
	for {
		s.mu.Lock()
		if len(s.backlog) == 0 || s.draining {
			s.mu.Unlock()
			return
		}
		run := s.backlog[0]
		s.backlog = s.backlog[1:]
		s.mu.Unlock()
		if err := s.pool.Submit(context.Background(), now().Add(s.cfg.BulkDeadline).UnixNano(), run); err != nil {
			s.mu.Lock()
			s.backlog = append([]func(context.Context){run}, s.backlog...)
			s.mu.Unlock()
			return
		}
	}
}

// Drain is the graceful half of shutdown: stop admitting (new
// submissions answer 503 and /ready reports not-ready so load
// balancers route away) and let queued and running jobs finish within
// ctx's budget. The listener stays up for status polling; call Close
// afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	s.mu.Unlock()
	if alreadyDraining {
		return nil
	}
	return s.pool.Quiesce(ctx)
}
