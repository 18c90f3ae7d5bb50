package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vipsim/vip/vip"
)

// post submits one SimRequest and returns the response with its body
// read out.
func post(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, b
}

func get(t *testing.T, url, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, b
}

// TestSimCachedReplay is the acceptance path: two identical submissions
// return byte-identical reports, the second served from cache with no
// second engine run.
func TestSimCachedReplay(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const req = `{"apps":["A5"],"duration_ms":10,"seed":7}`
	resp1, body1 := post(t, ts.URL, "/v1/sim", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST = %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Vip-Cache"); got != "miss" {
		t.Errorf("first X-Vip-Cache = %q, want miss", got)
	}
	if resp1.Header.Get("X-Vip-Scenario-Hash") == "" {
		t.Error("missing X-Vip-Scenario-Hash header")
	}
	if !json.Valid(body1) {
		t.Fatalf("report is not valid JSON: %.80s", body1)
	}

	hitsBefore := s.CacheStats().Hits
	resp2, body2 := post(t, ts.URL, "/v1/sim", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST = %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Vip-Cache"); got != "hit" {
		t.Errorf("second X-Vip-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached replay is not byte-identical to the original report")
	}
	if hits := s.CacheStats().Hits; hits != hitsBefore+1 {
		t.Errorf("cache hits = %d, want %d", hits, hitsBefore+1)
	}
	if runs := s.EngineRuns(); runs != 1 {
		t.Errorf("engine runs = %d, want 1 (replay must not re-simulate)", runs)
	}
}

// TestSimCanonicalSpellingsShareCache: a workload id and its expanded
// app mix are the same scenario, so the second spelling is a cache hit.
func TestSimCanonicalSpellingsShareCache(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, body1 := post(t, ts.URL, "/v1/sim", `{"apps":["W1"],"duration_ms":10}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("W1 POST = %d: %s", resp1.StatusCode, body1)
	}
	resp2, body2 := post(t, ts.URL, "/v1/sim", `{"apps":["A5","A5"],"duration_ms":10,"seed":1,"burst":5}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("expanded POST = %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Vip-Cache"); got != "hit" {
		t.Errorf("equivalent spelling X-Vip-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("equivalent spellings returned different reports")
	}
	if runs := s.EngineRuns(); runs != 1 {
		t.Errorf("engine runs = %d, want 1", runs)
	}
}

// TestSimShedsWhenSaturated: with one busy worker and a one-deep queue,
// a third distinct submission is rejected 429 immediately (retryable),
// not blocked.
func TestSimShedsWhenSaturated(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s := New(Config{
		Workers:    1,
		QueueDepth: 1,
		Run: func(sc vip.Scenario) ([]byte, error) {
			started <- struct{}{}
			<-gate
			return []byte(fmt.Sprintf(`{"seed":%d}`, sc.Seed)), nil
		},
	})
	defer func() { close(gate); s.Close() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Distinct seeds so nothing coalesces. First occupies the worker,
	// second fills the queue, third must shed.
	resp, body := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":101}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first async POST = %d: %s", resp.StatusCode, body)
	}
	<-started // worker is now parked inside Run

	resp, body = post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":102}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second async POST = %d: %s", resp.StatusCode, body)
	}

	done := make(chan struct{})
	var code atomic.Int64
	var shedBody []byte
	var retryAfter string
	go func() {
		defer close(done)
		resp, b := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":103}`)
		code.Store(int64(resp.StatusCode))
		shedBody = b
		retryAfter = resp.Header.Get("Retry-After")
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("saturated submission blocked instead of shedding")
	}
	if code.Load() != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d, want 429: %s", code.Load(), shedBody)
	}
	if retryAfter == "" {
		t.Error("429 without Retry-After header")
	}
	var doc struct {
		Retryable bool `json:"retryable"`
	}
	if err := json.Unmarshal(shedBody, &doc); err != nil || !doc.Retryable {
		t.Errorf("shed body not marked retryable: %s", shedBody)
	}
}

// TestSimCoalescesIdenticalInflight: an identical submission arriving
// while the first is still queued/running attaches to the same job
// instead of queueing a duplicate engine run.
func TestSimCoalescesIdenticalInflight(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	var runs atomic.Int64
	s := New(Config{
		Workers:    1,
		QueueDepth: 8,
		Run: func(sc vip.Scenario) ([]byte, error) {
			runs.Add(1)
			started <- struct{}{}
			<-gate
			return []byte(`{"ok":true}`), nil
		},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":9}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d: %s", resp.StatusCode, body)
	}
	var first struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &first); err != nil || first.ID == "" {
		t.Fatalf("bad async stub: %s", body)
	}
	<-started

	resp, body = post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":9}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second POST = %d: %s", resp.StatusCode, body)
	}
	var second struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatalf("bad async stub: %s", body)
	}
	if second.ID != first.ID {
		t.Errorf("identical in-flight submissions got distinct jobs %q, %q", first.ID, second.ID)
	}
	close(gate)

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, b := get(t, ts.URL, "/v1/jobs/"+first.ID)
		var job struct {
			Status string          `json:"status"`
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(b, &job); err != nil {
			t.Fatalf("bad job doc: %s", b)
		}
		if job.Status == StatusDone {
			if string(job.Report) != `{"ok":true}` {
				t.Errorf("job report = %s", job.Report)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %s", b)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("engine runs = %d, want 1 (coalesced)", got)
	}
}

// TestSimRejectsBadRequests: malformed JSON, unknown fields, unknown
// systems and apps, and requests past a size bound (an 11-day
// duration, a 1 ns sampler, 200 app ids, eight workload ids that
// expand to 24 apps) all answer 400 with a JSON error and run nothing;
// a request at every bound lowers cleanly.
func TestSimRejectsBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{`,
		`{"apps":["A5"],"bogus_knob":1}`,
		`{"apps":["A5"],"system":"warp9"}`,
		`{"apps":["A99"]}`,
		`{"apps":["A5"],"fault_rate":-0.5}`,
		`{"apps":["A5"],"duration_ms":1e9}`,
		`{"apps":["A5"],"metrics_interval_ms":1e-6}`,
		`{"apps":["A5"` + strings.Repeat(`,"A5"`, 199) + `]}`,
		`{"apps":["W2"` + strings.Repeat(`,"W2"`, 7) + `]}`, // 8 ids, 24 apps
	} {
		resp, b := post(t, ts.URL, "/v1/sim", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %.60s = %d, want 400 (%s)", body, resp.StatusCode, b)
		}
		if !json.Valid(b) {
			t.Errorf("error body is not JSON: %s", b)
		}
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Errorf("engine runs = %d, want 0", runs)
	}
	// Four W1 ids are eight apps.
	atBounds := SimRequest{Apps: []string{"W1", "W1", "W1", "W1"}, DurationMS: maxDurationMS, MetricsIntervalMS: minMetricsIntervalMS}
	lower(t, atBounds)

	resp, _ := get(t, ts.URL, "/v1/jobs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestServeObservability: /healthz answers, /metrics carries the serve
// instruments, /v1/cache/stats reflects traffic.
func TestServeObservability(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := get(t, ts.URL, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("/healthz = %d: %s", resp.StatusCode, body)
	}

	if resp, b := post(t, ts.URL, "/v1/sim", `{"apps":["A5"],"duration_ms":10}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST = %d: %s", resp.StatusCode, b)
	}
	post(t, ts.URL, "/v1/sim", `{"apps":["A5"],"duration_ms":10}`)

	_, body = get(t, ts.URL, "/metrics")
	for _, want := range []string{"vip_serve_cache_hits 1", "vip_serve_engine_runs 1", "vip_serve_requests_sync 2"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	_, body = get(t, ts.URL, "/v1/cache/stats")
	var doc struct {
		Cache struct {
			Hits uint64 `json:"hits"`
		} `json:"cache"`
		EngineRuns    uint64 `json:"engine_runs"`
		EngineVersion string `json:"engine_version"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad stats doc: %s", body)
	}
	if doc.Cache.Hits != 1 || doc.EngineRuns != 1 {
		t.Errorf("stats = hits %d runs %d, want 1/1: %s", doc.Cache.Hits, doc.EngineRuns, body)
	}
	if doc.EngineVersion != vip.EngineVersion {
		t.Errorf("engine_version = %q, want %q", doc.EngineVersion, vip.EngineVersion)
	}
}

// TestSimDiskCacheSurvivesRestart: with a cache directory, a new server
// instance serves the previous instance's result without re-simulating.
func TestSimDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := `{"apps":["A5"],"duration_ms":10,"seed":3}`

	s1 := New(Config{Workers: 1, CacheDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	_, body1 := post(t, ts1.URL, "/v1/sim", req)
	ts1.Close()
	s1.Close()

	s2 := New(Config{Workers: 1, CacheDir: dir})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, body2 := post(t, ts2.URL, "/v1/sim", req)
	if got := resp.Header.Get("X-Vip-Cache"); got != "hit" {
		t.Errorf("post-restart X-Vip-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("disk-cached replay is not byte-identical")
	}
	if runs := s2.EngineRuns(); runs != 0 {
		t.Errorf("engine runs after restart = %d, want 0", runs)
	}
}

// TestSyncDeadlineExpires: a sync request whose deadline elapses while
// the worker is busy answers 504 (retryable) and names the job to poll.
func TestSyncDeadlineExpires(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s := New(Config{
		Workers:    1,
		QueueDepth: 8,
		Run: func(vip.Scenario) ([]byte, error) {
			started <- struct{}{}
			<-gate
			return []byte(`{}`), nil
		},
	})
	defer func() { close(gate); s.Close() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, b := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":50}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST = %d: %s", resp.StatusCode, b)
	}
	<-started

	resp, body := post(t, ts.URL, "/v1/sim", `{"apps":["A5"],"seed":51,"deadline_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired sync POST = %d, want 504: %s", resp.StatusCode, body)
	}
	var doc struct {
		Retryable bool `json:"retryable"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || !doc.Retryable {
		t.Errorf("504 body not marked retryable: %s", body)
	}
}

// TestDeadlineMSOnlyTightens: deadline_ms can shorten a request's
// deadline but never lengthen it. Converted unbounded, a huge value
// wrapped the sync wait budget negative (an instant 504) or overflowed
// the EDF ordinal, so an async job dispatched ahead of every queued job.
func TestDeadlineMSOnlyTightens(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		s := New(Config{Workers: 1, Run: func(vip.Scenario) ([]byte, error) { return []byte(`{}`), nil }})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, body := post(t, ts.URL, "/v1/sim", `{"apps":["A5"],"seed":60,"deadline_ms":1e13}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sync POST with deadline_ms 1e13 = %d, want 200: %s", resp.StatusCode, body)
		}
	})
	t.Run("async", func(t *testing.T) {
		gate := make(chan struct{})
		ran := make(chan uint64, 8)
		s := New(Config{
			Workers:      1,
			QueueDepth:   8,
			SyncDeadline: 10 * time.Second, // bounds the wait when the order is wrong
			Run: func(sc vip.Scenario) ([]byte, error) {
				ran <- sc.Seed
				<-gate
				return []byte(`{}`), nil
			},
		})
		defer func() { close(gate); s.Close() }()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		if resp, b := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":61}`); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async POST = %d: %s", resp.StatusCode, b)
		}
		<-ran // the worker is held
		syncDone := make(chan int, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/sim", "application/json",
				strings.NewReader(`{"apps":["A5"],"seed":62}`))
			if err != nil {
				syncDone <- 0
				return
			}
			resp.Body.Close()
			syncDone <- resp.StatusCode
		}()
		for wait := time.Now().Add(5 * time.Second); s.pool.Stats().Depth < 1; time.Sleep(time.Millisecond) {
			if time.Now().After(wait) {
				t.Fatal("sync job never queued")
			}
		}
		if resp, b := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":63,"deadline_ms":9e12}`); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async POST with deadline_ms 9e12 = %d: %s", resp.StatusCode, b)
		}
		gate <- struct{}{} // release the held job; the next one runs
		if first := <-ran; first != 62 {
			t.Errorf("seed %d ran before the earlier-queued sync job", first)
		}
		gate <- struct{}{}
		if code := <-syncDone; code != http.StatusOK {
			t.Errorf("sync POST = %d, want 200", code)
		}
		<-ran
	})
}
