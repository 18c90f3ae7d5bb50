package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vipsim/vip/internal/store"
	"github.com/vipsim/vip/vip"
)

// seedJobRecord writes one job record straight into a closed store —
// the way a crashed process would have left it.
func seedJobRecord(t *testing.T, dir string, rec jobRecord) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("opening seed store: %v", err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("marshaling record: %v", err)
	}
	if err := st.Put(jobKeyPrefix+rec.ID, b); err != nil {
		t.Fatalf("seeding record: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("closing seed store: %v", err)
	}
}

// lower runs the request through the same acceptance pipeline the
// server uses, returning (hash, wire JSON, canonical bytes).
func lower(t *testing.T, req SimRequest) (string, []byte, []byte) {
	t.Helper()
	sc, err := req.scenario()
	if err != nil {
		t.Fatalf("lowering request: %v", err)
	}
	hash, err := sc.Hash()
	if err != nil {
		t.Fatalf("hashing scenario: %v", err)
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshaling request: %v", err)
	}
	canon, err := sc.Canonical()
	if err != nil {
		t.Fatalf("canonicalizing: %v", err)
	}
	return hash, reqJSON, canon
}

// waitDone polls /v1/jobs/<id> until the job leaves queued/running.
func waitDone(t *testing.T, url, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := get(t, url, "/v1/jobs/"+id)
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("job doc: %v: %s", err, body)
		}
		switch doc["status"] {
		case StatusDone, StatusFailed:
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck: %s", id, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsSurviveRestart: a finished job submitted to one server
// instance is still queryable — annotated recovered, report
// byte-identical — from a second instance booted on the same store and
// cache directories.
func TestJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	cacheDir := filepath.Join(dir, "cache")
	cfg := Config{Workers: 2, StoreDir: storeDir, CacheDir: cacheDir}

	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	resp, body := post(t, ts1.URL, "/v1/sim?async=1", `{"apps":["A5"],"duration_ms":10,"seed":7}`)
	if resp.StatusCode != 202 {
		t.Fatalf("async POST = %d: %s", resp.StatusCode, body)
	}
	var stub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &stub); err != nil {
		t.Fatalf("stub: %v", err)
	}
	doc1 := waitDone(t, ts1.URL, stub.ID)
	if doc1["status"] != StatusDone {
		t.Fatalf("first life status = %v (%v)", doc1["status"], doc1["error"])
	}
	report1, err := json.Marshal(doc1["report"])
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("closing first server: %v", err)
	}

	s2 := New(cfg)
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, body2 := get(t, ts2.URL, "/v1/jobs/"+stub.ID)
	if resp2.StatusCode != 200 {
		t.Fatalf("restored job GET = %d: %s", resp2.StatusCode, body2)
	}
	var doc2 map[string]any
	if err := json.Unmarshal(body2, &doc2); err != nil {
		t.Fatal(err)
	}
	if doc2["status"] != StatusDone {
		t.Errorf("restored status = %v, want done", doc2["status"])
	}
	if doc2["recovered"] != true {
		t.Errorf("restored job not annotated recovered: %s", body2)
	}
	report2, err := json.Marshal(doc2["report"])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report1, report2) {
		t.Error("restored report differs from the original")
	}
}

// TestInterruptedJobReRun: a record left in "running" state by a dead
// process is re-enqueued on boot and re-simulated to the same
// content-addressed result, with the attempt counted.
func TestInterruptedJobReRun(t *testing.T) {
	dir := t.TempDir()
	req := SimRequest{Apps: []string{"A5"}, DurationMS: 10, Seed: 7}
	hash, reqJSON, canon := lower(t, req)
	seedJobRecord(t, dir, jobRecord{
		ID: "j000001-" + hash[:12], Seq: 1, Hash: hash, Status: StatusRunning,
		Request: reqJSON, Canonical: string(canon),
	})

	s := New(Config{Workers: 2, StoreDir: dir, RetryBase: time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := waitDone(t, ts.URL, "j000001-"+hash[:12])
	if doc["status"] != StatusDone {
		t.Fatalf("recovered run status = %v (%v)", doc["status"], doc["error"])
	}
	if doc["recovered"] != true || doc["attempts"] != float64(1) {
		t.Errorf("want recovered=true attempts=1, got %v/%v", doc["recovered"], doc["attempts"])
	}
	if doc["report"] == nil {
		t.Error("recovered run has no report")
	}
	if runs := s.EngineRuns(); runs != 1 {
		t.Errorf("engine runs = %d, want 1", runs)
	}
	// A fresh submission of the same scenario must now be a cache hit,
	// byte-identical to the recovered run's report.
	resp, body := post(t, ts.URL, "/v1/sim", string(reqJSON))
	if resp.StatusCode != 200 {
		t.Fatalf("replay POST = %d: %s", resp.StatusCode, body)
	}
	report, err := json.Marshal(doc["report"])
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if json.Unmarshal(report, &a) != nil || json.Unmarshal(body, &b) != nil {
		t.Fatal("unparseable reports")
	}
	ra, _ := json.Marshal(a)
	rb, _ := json.Marshal(b)
	if !bytes.Equal(ra, rb) {
		t.Error("recovered report differs from direct submission")
	}
	if got := resp.Header.Get("X-Vip-Cache"); got != "hit" {
		t.Errorf("replay X-Vip-Cache = %q, want hit (recovery must have warmed the cache)", got)
	}
}

// TestRecoveryHashMismatchTerminal: a stored request that no longer
// lowers to the scenario it was accepted as must fail terminally, not
// run the wrong simulation.
func TestRecoveryHashMismatchTerminal(t *testing.T) {
	dir := t.TempDir()
	hash, _, canon := lower(t, SimRequest{Apps: []string{"A5"}, DurationMS: 10, Seed: 7})
	_, otherJSON, _ := lower(t, SimRequest{Apps: []string{"W4"}, DurationMS: 10, Seed: 9})
	seedJobRecord(t, dir, jobRecord{
		ID: "j000001-" + hash[:12], Seq: 1, Hash: hash, Status: StatusQueued,
		Request: otherJSON, Canonical: string(canon),
	})

	s := New(Config{Workers: 1, StoreDir: dir, RetryBase: time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := waitDone(t, ts.URL, "j000001-"+hash[:12])
	if doc["status"] != StatusFailed {
		t.Fatalf("status = %v, want failed", doc["status"])
	}
	if errMsg, _ := doc["error"].(string); errMsg == "" {
		t.Error("terminal failure carries no error message")
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Errorf("engine runs = %d, want 0 (wrong scenario must not run)", runs)
	}
}

// TestRetryBudgetExhausted: a job whose record has already burned its
// attempts converges to a terminal failure instead of retrying forever.
func TestRetryBudgetExhausted(t *testing.T) {
	dir := t.TempDir()
	req := SimRequest{Apps: []string{"A5"}, DurationMS: 10, Seed: 7}
	hash, reqJSON, canon := lower(t, req)
	seedJobRecord(t, dir, jobRecord{
		ID: "j000001-" + hash[:12], Seq: 1, Hash: hash, Status: StatusRunning,
		Attempts: 2, Request: reqJSON, Canonical: string(canon),
	})

	s := New(Config{Workers: 1, StoreDir: dir, MaxAttempts: 2, RetryBase: time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := waitDone(t, ts.URL, "j000001-"+hash[:12])
	if doc["status"] != StatusFailed {
		t.Fatalf("status = %v, want failed (budget exhausted)", doc["status"])
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Errorf("engine runs = %d, want 0", runs)
	}
}

// TestDrainStopsAdmission: after Drain, new submissions answer a
// retryable 503 and /ready reports not-ready with the draining flag.
func TestDrainStopsAdmission(t *testing.T) {
	s := New(Config{Workers: 1, StoreDir: t.TempDir()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.Drain(t.Context()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, body := post(t, ts.URL, "/v1/sim", `{"apps":["A5"],"duration_ms":10}`)
	if resp.StatusCode != 503 {
		t.Fatalf("POST while draining = %d: %s", resp.StatusCode, body)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["retryable"] != true {
		t.Errorf("draining rejection not marked retryable: %s", body)
	}
	rresp, rbody := get(t, ts.URL, "/ready")
	if rresp.StatusCode != 503 {
		t.Errorf("/ready while draining = %d, want 503", rresp.StatusCode)
	}
	var rdoc map[string]any
	if err := json.Unmarshal(rbody, &rdoc); err != nil {
		t.Fatal(err)
	}
	if rdoc["draining"] != true || rdoc["ready"] != false {
		t.Errorf("/ready body missing draining flag: %s", rbody)
	}
	// Drain is idempotent: a second call (double SIGTERM) is a no-op.
	if err := s.Drain(t.Context()); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// TestStoreBreakerDegrades: persistent store write failures trip the
// circuit breaker — the server keeps answering requests memory-only,
// /ready flips to 503, and the degraded gauge is exported — instead of
// failing the serving path.
func TestStoreBreakerDegrades(t *testing.T) {
	var warnings bytes.Buffer
	s := New(Config{Workers: 2, StoreDir: t.TempDir(), WarnLog: &warnings})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Kill the store out from under the server: every Put now fails the
	// way a yanked disk would.
	if err := s.store.Close(); err != nil {
		t.Fatalf("closing store underneath server: %v", err)
	}

	reqs := []string{
		`{"apps":["A5"],"duration_ms":10,"seed":1}`,
		`{"apps":["A5"],"duration_ms":10,"seed":2}`,
		`{"apps":["A5"],"duration_ms":10,"seed":3}`,
		`{"apps":["A5"],"duration_ms":10,"seed":4}`,
	}
	for i, body := range reqs {
		resp, rb := post(t, ts.URL, "/v1/sim", body)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d with broken store = %d: %s (degradation must not fail serving)", i, resp.StatusCode, rb)
		}
	}
	s.mu.Lock()
	degraded := s.storeDegraded
	s.mu.Unlock()
	if !degraded {
		t.Fatal("breaker did not open after repeated store failures")
	}
	if !bytes.Contains(warnings.Bytes(), []byte("store_degraded")) {
		t.Errorf("no store_degraded warning logged: %s", warnings.String())
	}
	rresp, rbody := get(t, ts.URL, "/ready")
	if rresp.StatusCode != 503 {
		t.Errorf("/ready while degraded = %d, want 503", rresp.StatusCode)
	}
	if !bytes.Contains(rbody, []byte(`"store_degraded":true`)) {
		t.Errorf("/ready body missing store_degraded: %s", rbody)
	}
	_, mbody := get(t, ts.URL, "/metrics")
	if !bytes.Contains(mbody, []byte("vip_serve_store_degraded 1")) {
		t.Errorf("metrics missing degraded gauge:\n%s", grepLines(mbody, "store"))
	}
}

// TestStoreDisabledUnchanged: without -store the new fields stay out of
// every response body, keeping the wire format byte-compatible.
func TestStoreDisabledUnchanged(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, rbody := get(t, ts.URL, "/ready")
	for _, field := range []string{"draining", "store_degraded"} {
		if bytes.Contains(rbody, []byte(field)) {
			t.Errorf("/ready leaks %q without a store: %s", field, rbody)
		}
	}
	_, sbody := get(t, ts.URL, "/v1/cache/stats")
	for _, field := range []string{"store_degraded", "store_writes", "replayed_jobs", "job_retries"} {
		if bytes.Contains(sbody, []byte(field)) {
			t.Errorf("stats leak %q without a store: %s", field, sbody)
		}
	}
	_, mbody := get(t, ts.URL, "/metrics")
	if bytes.Contains(mbody, []byte("vip_serve_store_")) {
		t.Errorf("metrics leak store series without a store:\n%s", grepLines(mbody, "store"))
	}
}

// grepLines filters b to lines containing sub, for failure messages.
func grepLines(b []byte, sub string) string {
	var out bytes.Buffer
	for _, line := range bytes.Split(b, []byte("\n")) {
		if bytes.Contains(line, []byte(sub)) {
			out.Write(line)
			out.WriteByte('\n')
		}
	}
	return out.String()
}

// TestWarnLogIsStructured: degraded-path warnings are one JSON object
// per line, machine-parseable.
func TestWarnLogIsStructured(t *testing.T) {
	var warnings bytes.Buffer
	s := New(Config{Workers: 1, StoreDir: t.TempDir(), WarnLog: &warnings})
	defer s.Close()
	if err := s.store.Close(); err != nil {
		t.Fatal(err)
	}
	s.storeWriteFailed(os.ErrClosed)
	for _, line := range bytes.Split(bytes.TrimSpace(warnings.Bytes()), []byte("\n")) {
		var doc map[string]any
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatalf("warn line is not JSON: %q", line)
		}
		if doc["level"] != "warn" || doc["event"] == "" {
			t.Errorf("warn line missing level/event: %q", line)
		}
	}
}

// TestConcurrentMissesRunEngineOnce: with the durable store on, 16
// identical submissions arriving at once run the engine once. The
// in-flight check and the registration are one critical section, so no
// two misses can both pass the check while the first job's record is
// being fsynced; every caller gets the one run's bytes.
func TestConcurrentMissesRunEngineOnce(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{
		Workers:  4,
		StoreDir: t.TempDir(),
		Run: func(vip.Scenario) ([]byte, error) {
			n := runs.Add(1)
			time.Sleep(20 * time.Millisecond) // hold the run open while the others arrive
			return []byte(fmt.Sprintf(`{"run":%d}`, n)), nil
		},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 16
	start := make(chan struct{})
	bodies := make([][]byte, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/sim", "application/json",
				strings.NewReader(`{"apps":["A5"],"duration_ms":10,"seed":7}`))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := range bodies {
		if codes[i] != http.StatusOK {
			t.Errorf("client %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d got %s, client 0 got %s", i, bodies[i], bodies[0])
		}
	}
	_, sbody := get(t, ts.URL, "/v1/cache/stats")
	var stats struct {
		EngineRuns uint64 `json:"engine_runs"`
	}
	if err := json.Unmarshal(sbody, &stats); err != nil {
		t.Fatalf("decoding stats: %v: %s", err, sbody)
	}
	if stats.EngineRuns != 1 {
		t.Errorf("engine_runs = %d for %d identical submissions, want 1", stats.EngineRuns, clients)
	}
}
