package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/vipsim/vip/vip"
)

// sseEvent is one parsed Server-Sent Events frame.
type sseEvent struct {
	event string
	data  string
}

// readEvent reads one SSE frame (through its blank-line terminator).
func readEvent(t *testing.T, br *bufio.Reader) sseEvent {
	t.Helper()
	var ev sseEvent
	var data []string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE frame: %v (got so far: %+v)", err, ev)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			ev.data = strings.Join(data, "\n")
			return ev
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: "))
		}
	}
}

// TestStreamDeterministicSequence pins the /v1/sim/stream contract with
// the periodic ticker disabled: the initial snapshot arrives
// synchronously on connect (before any job activity), then one job's
// lifecycle is observed strictly in queued -> running -> done order.
func TestStreamDeterministicSequence(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s := New(Config{
		Workers:        1,
		StreamInterval: -1, // job events and the initial snapshot only
		Run: func(vip.Scenario) ([]byte, error) {
			started <- struct{}{}
			<-gate
			return []byte(`{"ok":true}`), nil
		},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/sim/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	br := bufio.NewReader(resp.Body)

	snap := readEvent(t, br)
	if snap.event != "snapshot" {
		t.Fatalf("first event = %q, want snapshot", snap.event)
	}
	var snapDoc struct {
		QueueCap int `json:"queue_cap"`
	}
	if err := json.Unmarshal([]byte(snap.data), &snapDoc); err != nil || snapDoc.QueueCap == 0 {
		t.Fatalf("snapshot is not the stats doc: %s", snap.data)
	}

	if resp, b := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":77}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST = %d: %s", resp.StatusCode, b)
	}
	<-started // the worker is inside Run: queued and running are published
	close(gate)

	wantStatuses := []string{StatusQueued, StatusRunning, StatusDone}
	for _, want := range wantStatuses {
		ev := readEvent(t, br)
		if ev.event != "job" {
			t.Fatalf("event = %q (data %s), want job", ev.event, ev.data)
		}
		var doc struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(ev.data), &doc); err != nil {
			t.Fatalf("bad job event: %s", ev.data)
		}
		if doc.Status != want {
			t.Fatalf("job event status = %q, want %q", doc.Status, want)
		}
		if doc.ID == "" {
			t.Fatalf("job event without id: %s", ev.data)
		}
	}
}

// TestStreamDeliversBeforeLongJobCompletes is the CI smoke's contract in
// miniature: a client that connects while a long job runs receives at
// least one event before that job finishes.
func TestStreamDeliversBeforeLongJobCompletes(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s := New(Config{
		Workers:        1,
		StreamInterval: -1,
		Run: func(vip.Scenario) ([]byte, error) {
			started <- struct{}{}
			<-gate // the "long" job holds until the stream has delivered
			return []byte(`{}`), nil
		},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, b := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":5}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST = %d: %s", resp.StatusCode, b)
	}
	<-started

	resp, err := http.Get(ts.URL + "/v1/sim/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ev := readEvent(t, bufio.NewReader(resp.Body))
	if ev.event != "snapshot" {
		t.Fatalf("mid-job subscriber's first event = %q, want snapshot", ev.event)
	}
	close(gate)
}

// TestReadyReflectsAdmission: /ready is 200 while the EDF queue has
// room and 503 once it is full — the load balancer's drain signal,
// distinct from /healthz liveness (which stays 200 throughout).
func TestReadyReflectsAdmission(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s := New(Config{
		Workers:    1,
		QueueDepth: 1,
		Run: func(vip.Scenario) ([]byte, error) {
			started <- struct{}{}
			<-gate
			return []byte(`{}`), nil
		},
	})
	defer func() { s.Close() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := get(t, ts.URL, "/ready")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idle /ready = %d: %s", resp.StatusCode, body)
	}

	// Occupy the worker, then fill the one-deep queue.
	if resp, b := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":201}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first async POST = %d: %s", resp.StatusCode, b)
	}
	<-started
	if resp, b := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":202}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second async POST = %d: %s", resp.StatusCode, b)
	}

	resp, body = get(t, ts.URL, "/ready")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated /ready = %d, want 503: %s", resp.StatusCode, body)
	}
	var doc struct {
		Ready      bool `json:"ready"`
		QueueDepth int  `json:"queue_depth"`
		QueueCap   int  `json:"queue_cap"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad /ready doc: %s", body)
	}
	if doc.Ready || doc.QueueDepth != doc.QueueCap {
		t.Errorf("/ready doc = %+v, want ready=false at depth==cap", doc)
	}
	if resp, _ := get(t, ts.URL, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d during saturation, want 200 (liveness != readiness)", resp.StatusCode)
	}

	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ = get(t, ts.URL, "/ready")
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/ready never recovered after the queue drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRequestSpans: every response carries an X-Request-Id, sim
// responses carry the stage-latency breakdown, and the access log
// receives one JSON line per request with the stages embedded.
func TestRequestSpans(t *testing.T) {
	var logBuf bytes.Buffer
	s := New(Config{Workers: 2, AccessLog: &logBuf})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts.URL, "/v1/sim", `{"apps":["A5"],"duration_ms":10,"seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("missing X-Request-Id")
	}
	stages := resp.Header.Get("X-Vip-Stages")
	for _, want := range []string{"admit=", "cache=", "queue=", "simulate="} {
		if !strings.Contains(stages, want) {
			t.Errorf("X-Vip-Stages = %q missing %q", stages, want)
		}
	}

	// A caller-supplied id is propagated, not replaced.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/cache/stats", nil)
	req.Header.Set("X-Request-Id", "caller-trace-1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "caller-trace-1" {
		t.Errorf("propagated X-Request-Id = %q, want caller-trace-1", got)
	}

	// The access log: one valid JSON line per request, carrying the sim
	// request's id, hash, status and stage breakdown.
	s.accessMu.Lock()
	lines := bytes.Split(bytes.TrimSpace(logBuf.Bytes()), []byte("\n"))
	s.accessMu.Unlock()
	if len(lines) < 2 {
		t.Fatalf("access log has %d lines, want >= 2:\n%s", len(lines), logBuf.Bytes())
	}
	var rec struct {
		Time   string `json:"time"`
		ID     string `json:"id"`
		Method string `json:"method"`
		Path   string `json:"path"`
		Status int    `json:"status"`
		Hash   string `json:"hash"`
		Stages []struct {
			Name  string `json:"name"`
			DurNS int64  `json:"dur_ns"`
		} `json:"stages"`
		TotalNS int64 `json:"total_ns"`
	}
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("access log line is not JSON: %s", lines[0])
	}
	if rec.ID != id || rec.Method != "POST" || rec.Path != "/v1/sim" || rec.Status != 200 {
		t.Errorf("access log record = %+v, want id %s POST /v1/sim 200", rec, id)
	}
	if rec.Hash == "" || rec.Time == "" || rec.TotalNS <= 0 {
		t.Errorf("access log record missing hash/time/total_ns: %s", lines[0])
	}
	names := make(map[string]bool)
	for _, st := range rec.Stages {
		names[st.Name] = true
	}
	for _, want := range []string{"admit", "cache", "queue", "simulate", "encode"} {
		if !names[want] {
			t.Errorf("access log stages missing %q: %s", want, lines[0])
		}
	}
}

// TestServeGauges: the admission-control gauges the dashboards key on —
// shed, EDF deadline misses and queue depth — are rendered at /metrics.
func TestServeGauges(t *testing.T) {
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
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Worker busy; queue holds a job whose 1ms EDF deadline will have
	// passed by the time the worker frees up -> one deadline miss.
	if resp, b := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":301}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first async POST = %d: %s", resp.StatusCode, b)
	}
	<-started
	if resp, b := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":302,"deadline_ms":1}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second async POST = %d: %s", resp.StatusCode, b)
	}
	// Queue full: the third distinct submission sheds.
	if resp, b := post(t, ts.URL, "/v1/sim?async=1", `{"apps":["A5"],"seed":303}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d, want 429: %s", resp.StatusCode, b)
	}

	_, body := get(t, ts.URL, "/metrics")
	if !strings.Contains(string(body), "vip_serve_shed_total 1") {
		t.Errorf("/metrics missing vip_serve_shed_total 1:\n%.2000s", body)
	}
	if !strings.Contains(string(body), "vip_serve_queue_depth 1") {
		t.Errorf("/metrics missing vip_serve_queue_depth 1:\n%.2000s", body)
	}

	time.Sleep(5 * time.Millisecond) // let the queued job's 1ms deadline lapse
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.Stats().Dispatched < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queued jobs never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	_, body = get(t, ts.URL, "/metrics")
	if !strings.Contains(string(body), "vip_serve_deadline_miss_total 1") {
		t.Errorf("/metrics missing vip_serve_deadline_miss_total 1:\n%.2000s", body)
	}
}

// TestPprofGated: the profile endpoints exist only when asked for.
func TestPprofGated(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, _ := get(t, ts.URL, "/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	s2 := New(Config{Workers: 1, EnablePprof: true})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if resp, body := get(t, ts2.URL, "/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("pprof enabled: /debug/pprof/cmdline = %d (%d bytes), want 200", resp.StatusCode, len(body))
	}
}
