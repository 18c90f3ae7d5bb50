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

	"github.com/vipsim/vip/internal/cache"
	"github.com/vipsim/vip/vip"
)

// lower runs the request through the same acceptance pipeline the
// server uses and returns its scenario hash (the job id).
func lower(t *testing.T, req SimRequest) string {
	t.Helper()
	sc, err := req.scenario()
	if err != nil {
		t.Fatalf("lowering request: %v", err)
	}
	hash, err := sc.Hash()
	if err != nil {
		t.Fatalf("hashing scenario: %v", err)
	}
	return hash
}

// seedMarker writes a pending marker for req under hash straight into
// the cache directory — the way a crashed process would have left it.
func seedMarker(t *testing.T, dir, hash string, req SimRequest, attempts int) {
	t.Helper()
	b, err := json.Marshal(marker{Request: req, Attempts: attempts})
	if err != nil {
		t.Fatalf("marshaling marker: %v", err)
	}
	if err := cache.New(1, dir).PutPending(cache.Key(hash, vip.EngineVersion), b); err != nil {
		t.Fatalf("seeding marker: %v", err)
	}
}

// markerExists reports whether hash's pending marker is on disk.
func markerExists(t *testing.T, dir, hash string) bool {
	t.Helper()
	for _, m := range cache.New(1, dir).Markers() {
		if m.Key == cache.Key(hash, vip.EngineVersion) {
			return true
		}
	}
	return false
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
// byte-identical — from a second instance booted on the same cache
// directory, and its id is its scenario hash.
func TestJobsSurviveRestart(t *testing.T) {
	cfg := Config{Workers: 2, CacheDir: t.TempDir()}

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
	if hash := resp.Header.Get("X-Vip-Scenario-Hash"); stub.ID != hash {
		t.Errorf("job id %q is not the scenario hash %q", stub.ID, hash)
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

// TestInterruptedJobReRun: a marker left by a dead process is
// re-enqueued on boot and re-simulated to the same content-addressed
// result, with the attempt counted and the marker gone afterwards.
func TestInterruptedJobReRun(t *testing.T) {
	dir := t.TempDir()
	req := SimRequest{Apps: []string{"A5"}, DurationMS: 10, Seed: 7}
	hash := lower(t, req)
	seedMarker(t, dir, hash, req, 0)

	s := New(Config{Workers: 2, CacheDir: dir})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := waitDone(t, ts.URL, hash)
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
	if markerExists(t, dir, hash) {
		t.Error("marker still on disk after the recovered job finished")
	}
	// A fresh submission of the same scenario must now be a cache hit,
	// byte-identical to the recovered run's report.
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
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

// TestRecoveryHashMismatchTerminal: a marker whose request no longer
// lowers to the key it was accepted under (another scenario, or the
// same one under another engine version), or no longer lowers at all
// (past a request size bound), must fail terminally, not run the wrong
// simulation, and its marker must go.
func TestRecoveryHashMismatchTerminal(t *testing.T) {
	dir := t.TempDir()
	hash := lower(t, SimRequest{Apps: []string{"A5"}, DurationMS: 10, Seed: 7})
	seedMarker(t, dir, hash, SimRequest{Apps: []string{"W4"}, DurationMS: 10, Seed: 9}, 0)
	longHash, err := vip.Scenario{System: vip.SystemVIP, Apps: []string{"A5"}, Duration: 20 * vip.Second}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	seedMarker(t, dir, longHash, SimRequest{Apps: []string{"A5"}, DurationMS: 20_000}, 0)
	oldReq := SimRequest{Apps: []string{"A2"}, DurationMS: 10, Seed: 9}
	oldHash := lower(t, oldReq)
	b, err := json.Marshal(marker{Request: oldReq})
	if err != nil {
		t.Fatal(err)
	}
	oldKey := cache.Key(oldHash, "vip-engine/0")
	if err := cache.New(1, dir).PutPending(oldKey, b); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 1, CacheDir: dir})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, id := range []string{hash, oldHash, longHash} {
		doc := waitDone(t, ts.URL, id)
		if doc["status"] != StatusFailed {
			t.Fatalf("job %.12s: status = %v, want failed", id, doc["status"])
		}
		if errMsg, _ := doc["error"].(string); errMsg == "" {
			t.Errorf("job %.12s: terminal failure carries no error message", id)
		}
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Errorf("engine runs = %d, want 0 (wrong scenario must not run)", runs)
	}
	if ms := cache.New(1, dir).Markers(); len(ms) != 0 {
		t.Errorf("terminal failures left %d markers on disk", len(ms))
	}
}

// TestTornMarkerFailsTerminally: a marker that fails its checksum
// stood for an acknowledged job, so its client learns of a terminal
// failure instead of a 404, and the marker goes.
func TestTornMarkerFailsTerminally(t *testing.T) {
	dir := t.TempDir()
	req := SimRequest{Apps: []string{"A5"}, DurationMS: 10, Seed: 7}
	hash := lower(t, req)
	seedMarker(t, dir, hash, req, 0)
	p := filepath.Join(dir, hash[:2], cache.Key(hash, vip.EngineVersion)+".pending")
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 1, CacheDir: dir})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := waitDone(t, ts.URL, hash)
	if errMsg, _ := doc["error"].(string); doc["status"] != StatusFailed || !strings.Contains(errMsg, "torn") {
		t.Fatalf("torn marker: status=%v error=%v, want failed naming the torn marker", doc["status"], doc["error"])
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Errorf("engine runs = %d, want 0", runs)
	}
	if markerExists(t, dir, hash) {
		t.Error("torn marker left on disk")
	}
	if c := s.CacheStats().Corrupt; c != 1 {
		t.Errorf("Corrupt = %d, want 1", c)
	}
}

// TestRetryBudgetExhausted: a marker that has already burned its
// attempts converges to a terminal failure instead of retrying forever.
func TestRetryBudgetExhausted(t *testing.T) {
	dir := t.TempDir()
	req := SimRequest{Apps: []string{"A5"}, DurationMS: 10, Seed: 7}
	hash := lower(t, req)
	seedMarker(t, dir, hash, req, maxAttempts)

	s := New(Config{Workers: 1, CacheDir: dir})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := waitDone(t, ts.URL, hash)
	if doc["status"] != StatusFailed {
		t.Fatalf("status = %v, want failed (budget exhausted)", doc["status"])
	}
	if errMsg, _ := doc["error"].(string); !strings.Contains(errMsg, "retry budget exhausted") {
		t.Errorf("error = %q, want the retry budget named", errMsg)
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Errorf("engine runs = %d, want 0", runs)
	}
	if markerExists(t, dir, hash) {
		t.Error("terminal failure left its marker on disk")
	}
}

// TestRecoveredBacklogWaitsForQueue: more recovered jobs than the pool
// can queue wait for room without spending attempts. With one worker
// and a one-deep queue, all six markers finish done on their first
// attempt.
func TestRecoveredBacklogWaitsForQueue(t *testing.T) {
	dir := t.TempDir()
	var hashes []string
	for seed := uint64(1); seed <= 6; seed++ {
		req := SimRequest{Apps: []string{"A5"}, DurationMS: 10, Seed: seed}
		hash := lower(t, req)
		seedMarker(t, dir, hash, req, 0)
		hashes = append(hashes, hash)
	}

	s := New(Config{
		Workers:    1,
		QueueDepth: 1,
		Run: func(sc vip.Scenario) ([]byte, error) {
			time.Sleep(30 * time.Millisecond)
			return []byte(fmt.Sprintf(`{"seed":%d}`, sc.Seed)), nil
		},
		CacheDir: dir,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, hash := range hashes {
		doc := waitDone(t, ts.URL, hash)
		if doc["status"] != StatusDone || doc["attempts"] != float64(1) {
			t.Errorf("job %.12s: status=%v attempts=%v error=%v, want done after 1 attempt",
				hash, doc["status"], doc["attempts"], doc["error"])
		}
	}
}

// TestMarkerLifecycle: an async miss's marker is on disk while its run
// is in flight and gone once the job is done; a sync miss and a cache
// hit write none.
func TestMarkerLifecycle(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s := New(Config{
		Workers:  1,
		CacheDir: dir,
		Run: func(sc vip.Scenario) ([]byte, error) {
			if sc.Seed == 1 {
				started <- struct{}{}
				<-gate
			}
			return []byte(fmt.Sprintf(`{"seed":%d}`, sc.Seed)), nil
		},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	asyncReq := SimRequest{Apps: []string{"A5"}, Seed: 1}
	resp, body := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST = %d: %s", resp.StatusCode, body)
	}
	<-started
	hash := lower(t, asyncReq)
	if !markerExists(t, dir, hash) {
		t.Error("no marker on disk while the acknowledged job runs")
	}
	close(gate)
	if doc := waitDone(t, ts.URL, hash); doc["status"] != StatusDone {
		t.Fatalf("async job status = %v (%v)", doc["status"], doc["error"])
	}
	if markerExists(t, dir, hash) {
		t.Error("marker still on disk after the job is done")
	}

	for i, path := range []string{"/v1/sim", "/v1/sim", "/v1/sim?async=1"} { // miss, hit, async hit
		if resp, body := post(t, ts.URL, path, `{"apps":["A5"],"seed":2}`); resp.StatusCode/100 != 2 {
			t.Fatalf("request %d %s = %d: %s", i, path, resp.StatusCode, body)
		}
	}
	if ms := cache.New(1, dir).Markers(); len(ms) != 0 {
		t.Errorf("sync miss and cache hits left %d markers", len(ms))
	}
}

// TestJobIDValidatedBeforeDisk: only 64 lowercase hex digits reach the
// cache-directory fallback. Each bad id below names a planted, valid
// result that the cache reads back under that id, and must still
// answer 404.
func TestJobIDValidatedBeforeDisk(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, CacheDir: dir})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hash := lower(t, SimRequest{Apps: []string{"A5"}, Seed: 1})
	bad := []string{"..@x", strings.ToUpper(hash), hash[:63], hash + "0"}
	plant := cache.New(1, dir)
	for _, id := range bad {
		if err := plant.Put(cache.Key(id, vip.EngineVersion), []byte(`{"planted":true}`)); err != nil {
			t.Fatalf("planting %q: %v", id, err)
		}
	}
	for _, id := range bad {
		if _, ok := cache.New(1, dir).Get(cache.Key(id, vip.EngineVersion)); !ok {
			t.Fatalf("the plant for %q does not read back", id)
		}
	}
	for _, id := range bad {
		resp, body := get(t, ts.URL, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/jobs/%s = %d, want 404: %s", id, resp.StatusCode, body)
		}
	}
	if st := s.CacheStats(); st.Hits+st.Misses != 0 {
		t.Errorf("bad ids reached the cache: %+v", st)
	}
}

// TestDrainStopsAdmission: after Drain, new submissions answer a
// retryable 503 and /ready reports not-ready with the draining flag.
func TestDrainStopsAdmission(t *testing.T) {
	s := New(Config{Workers: 1, CacheDir: t.TempDir()})
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

// blockShard puts a regular file where hash's shard directory of the
// cache belongs, so every write of its result or marker fails the way
// a broken disk would.
func blockShard(t *testing.T, dir, hash string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, hash[:2]), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMarkerWriteFailureRefusesAsync: when the pending marker cannot
// be written, the async POST answers a retryable 503 with one warn line
// and registers nothing, while sync requests for the same scenario keep
// serving and /ready stays up.
func TestMarkerWriteFailureRefusesAsync(t *testing.T) {
	dir := t.TempDir()
	const req = `{"apps":["A5"],"duration_ms":10,"seed":1}`
	hash := lower(t, SimRequest{Apps: []string{"A5"}, DurationMS: 10, Seed: 1})
	blockShard(t, dir, hash)
	var warnings bytes.Buffer
	s := New(Config{Workers: 2, CacheDir: dir, WarnLog: &warnings})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts.URL, "/v1/sim?async=1", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("async POST with an unwritable marker = %d, want 503: %s", resp.StatusCode, body)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil || doc["retryable"] != true {
		t.Errorf("503 not marked retryable: %s", body)
	}
	if n := bytes.Count(warnings.Bytes(), []byte(`"marker_write_failed"`)); n != 1 {
		t.Errorf("%d marker_write_failed warnings, want 1: %s", n, warnings.String())
	}
	if resp, body := get(t, ts.URL, "/v1/jobs/"+hash); resp.StatusCode != http.StatusNotFound {
		t.Errorf("refused job is registered: GET = %d: %s", resp.StatusCode, body)
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Errorf("engine runs = %d after a refused async POST, want 0", runs)
	}
	if resp, body := post(t, ts.URL, "/v1/sim", req); resp.StatusCode != http.StatusOK {
		t.Errorf("sync POST with an unwritable disk = %d, want 200: %s", resp.StatusCode, body)
	}
	if resp, body := get(t, ts.URL, "/ready"); resp.StatusCode != http.StatusOK {
		t.Errorf("/ready after a marker failure = %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestStoreDisabledUnchanged: without a cache directory nothing is
// durable, and the durability fields stay out of every response body.
func TestStoreDisabledUnchanged(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, rbody := get(t, ts.URL, "/ready")
	for _, field := range []string{"draining", "store_degraded"} {
		if bytes.Contains(rbody, []byte(field)) {
			t.Errorf("/ready leaks %q without a cache dir: %s", field, rbody)
		}
	}
	_, sbody := get(t, ts.URL, "/v1/cache/stats")
	for _, field := range []string{"store_degraded", "store_writes", "replayed_jobs", "job_retries"} {
		if bytes.Contains(sbody, []byte(field)) {
			t.Errorf("stats leak %q without a cache dir: %s", field, sbody)
		}
	}
	_, mbody := get(t, ts.URL, "/metrics")
	if bytes.Contains(mbody, []byte("vip_serve_store_")) {
		t.Errorf("metrics leak store series without a cache dir:\n%s", grepLines(mbody, "store"))
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

// TestWarnLogIsStructured: durability warnings — the boot recovery
// summary and a failed marker write — are one JSON object per line,
// machine-parseable.
func TestWarnLogIsStructured(t *testing.T) {
	dir := t.TempDir()
	req := SimRequest{Apps: []string{"A5"}, DurationMS: 10, Seed: 7}
	seedMarker(t, dir, lower(t, req), req, maxAttempts)
	blockShard(t, dir, lower(t, SimRequest{Apps: []string{"A5"}, DurationMS: 10, Seed: 1}))
	var warnings bytes.Buffer
	s := New(Config{Workers: 1, CacheDir: dir, WarnLog: &warnings})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"duration_ms":10,"seed":1}`)

	events := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(warnings.Bytes()), []byte("\n")) {
		var doc map[string]any
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatalf("warn line is not JSON: %q", line)
		}
		if doc["level"] != "warn" || doc["event"] == "" {
			t.Errorf("warn line missing level/event: %q", line)
		}
		event, _ := doc["event"].(string)
		events[event] = true
	}
	for _, want := range []string{"jobs_recovered", "marker_write_failed"} {
		if !events[want] {
			t.Errorf("no %s warning logged: %s", want, warnings.String())
		}
	}
}

// TestConcurrentMissesRunEngineOnce: with a cache directory, 16
// identical submissions arriving at once — half sync, half async, so
// marker writes race the registration — run the engine once. The live
// check and the registration are one critical section, so no two
// misses can both pass the check; every sync caller gets the one run's
// bytes and every async caller the one job id.
func TestConcurrentMissesRunEngineOnce(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{
		Workers:  4,
		CacheDir: t.TempDir(),
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
	const req = `{"apps":["A5"],"duration_ms":10,"seed":7}`
	hash := lower(t, SimRequest{Apps: []string{"A5"}, DurationMS: 10, Seed: 7})
	start := make(chan struct{})
	bodies := make([][]byte, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			path := "/v1/sim"
			if i%2 == 1 {
				path += "?async=1"
			}
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(req))
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
		if i%2 == 1 {
			var stub struct {
				ID string `json:"id"`
			}
			if codes[i] != http.StatusAccepted || json.Unmarshal(bodies[i], &stub) != nil || stub.ID != hash {
				t.Errorf("async client %d: status %d: %s (want 202 with id %s)", i, codes[i], bodies[i], hash)
			}
			continue
		}
		if codes[i] != http.StatusOK {
			t.Errorf("client %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d got %s, client 0 got %s", i, bodies[i], bodies[0])
		}
	}
	waitDone(t, ts.URL, hash)
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
