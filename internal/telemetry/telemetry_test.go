package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/vipsim/vip/internal/sim"
)

// TestNilRecorderIsNoOp pins the probe discipline: model code calls a
// nil recorder unconditionally, so every method must be safe on nil.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Emit(Span{Track: "t", Name: "x"})
	r.Instant("t", "c", "x", 0)
	r.FrameSubmit("t", 0, 0)
	r.FrameDrop("t", 0, 0)
	r.Frame("t", 0, 0, 1, 2, 3, true)
	r.FrameExpired("t", 0, 0)
	r.Detour("t", 0, "timeout", 0)
	r.Hop("VD", 0, 0, 0, 0, 0, 1, 2, 0, 0, 1, 1)
	if r.Spans() != nil {
		t.Error("nil recorder recorded something")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteJSONL: err=%v len=%d", err, buf.Len())
	}
	if err := r.WriteChrome(&buf); err != nil {
		t.Errorf("nil WriteChrome: %v", err)
	}
}

func sample() *Recorder { return recordSample(NewRecorder()) }

// recordSample records one frame's span log into r and returns r.
func recordSample(r *Recorder) *Recorder {
	r.FrameSubmit("flow0:A5/play", 0, 0)
	r.Hop("VD", 1, 0, 0, 0, 0, 2*sim.Microsecond, 9*sim.Microsecond, 1500, 250, 4096, 2048)
	r.Frame("flow0:A5/play", 0, 0, 2*sim.Microsecond, 12*sim.Microsecond, 16*sim.Microsecond, true)
	r.Frame("flow0:A5/play", 1, 16*sim.Microsecond, 18*sim.Microsecond, 40*sim.Microsecond, 32*sim.Microsecond, false)
	r.Detour("flow0:A5/play", 1, "timeout", 35*sim.Microsecond)
	return r
}

// TestSpansSortedAndStable: exported spans are ordered by start time and
// two identical recordings export byte-identical JSONL and Chrome JSON.
func TestSpansSortedAndStable(t *testing.T) {
	r := sample()
	spans := r.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans out of order at %d: %v after %v", i, spans[i].Start, spans[i-1].Start)
		}
	}
	var a, b bytes.Buffer
	if err := r.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := sample().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical recordings exported different JSONL")
	}
	a.Reset()
	b.Reset()
	if err := r.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := sample().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical recordings exported different Chrome JSON")
	}
}

// TestJSONLShape: every line is standalone JSON with integer timestamps
// and the expected categories; the missed frame carries a qos instant.
func TestJSONLShape(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	cats := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var s struct {
			Track string `json:"track"`
			Cat   string `json:"cat"`
			Name  string `json:"name"`
			Start int64  `json:"start_ns"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if s.Track == "" || s.Cat == "" || s.Name == "" {
			t.Errorf("line missing fields: %q", line)
		}
		cats[s.Cat]++
	}
	for _, want := range []string{"frame", "hop", "qos", "recovery"} {
		if cats[want] == 0 {
			t.Errorf("no %q spans in JSONL", want)
		}
	}
	if !strings.Contains(buf.String(), `{"k":"qos","v":"missed"}`) {
		t.Error("missed frame lost its qos attribute")
	}
	if !strings.Contains(buf.String(), `{"k":"dram_ns","v":1500}`) {
		t.Error("hop span lost its dram_ns attribute")
	}
}

// TestChromeShape: the Chrome export is one JSON array with thread_name
// metadata for every track and args on annotated spans.
func TestChromeShape(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome export is not a JSON array: %v", err)
	}
	names := 0
	for _, e := range evs {
		if e["name"] == "thread_name" {
			names++
		}
	}
	if names != 2 { // flow track + hop track
		t.Errorf("expected 2 thread_name events, got %d", names)
	}
}

// TestRequestSpan covers the wall-clock side: stage accumulation, the
// header rendering and the access-log line shape.
func TestRequestSpan(t *testing.T) {
	rs := &RequestSpan{ID: "r000001", Method: "POST", Path: "/v1/sim", Status: 200, Cache: "miss"}
	rs.AddStage("admit", 41_000)
	rs.AddStage("queue", -5) // clamps
	rs.AddStage("simulate", 12_007_000)
	rs.TotalNS = 12_100_000
	h := rs.StageHeader()
	if h != "admit=0.041ms;queue=0.000ms;simulate=12.007ms" {
		t.Errorf("StageHeader = %q", h)
	}
	line, err := rs.AccessLogLine("2026-01-02T03:04:05Z")
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v", err)
	}
	for _, k := range []string{"time", "id", "method", "path", "status", "stages", "total_ns"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("access log line missing %q: %s", k, line)
		}
	}
}
