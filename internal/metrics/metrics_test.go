package metrics

import (
	"bytes"
	"strings"
	"testing"

	"github.com/vipsim/vip/internal/sim"
)

func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Error("nil registry must report disabled")
	}
	d := r.Distribution("y")
	if d != nil {
		t.Error("nil registry must hand out nil distributions")
	}
	d.Observe(3) // must not panic
	if s := d.Summary(); s.Count != 0 {
		t.Error("nil distribution must summarize empty")
	}
	r.Gauge("z", func() float64 { return 1 }) // must not panic
	if r.GaugeNames() != nil || r.Distributions() != nil {
		t.Error("nil registry accessors must return nil")
	}
	if s := StartSampler(sim.NewEngine(), r, sim.Millisecond, sim.Second); s != nil {
		t.Error("sampler on a nil registry must be nil")
	}
}

func TestGaugeReplacement(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", func() float64 { return 1 })
	r.Gauge("g", func() float64 { return 2 })
	r.Gauge("a", func() float64 { return 3 })
	names := r.GaugeNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "g" {
		t.Errorf("GaugeNames = %v", names)
	}
	gs := r.sortedGauges()
	if gs[1].fn() != 2 {
		t.Error("re-registering must replace the callback")
	}
}

func TestDistributionSummary(t *testing.T) {
	r := NewRegistry()
	d := r.Distribution("flow")
	for _, v := range []float64{1, 2, 3, 4} {
		d.Observe(v)
	}
	s := d.Summary()
	if s.Count != 4 || s.Mean != 2.5 || s.Max != 4 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestSamplerTicks(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	reg.Gauge("time_ms", func() float64 { return float64(eng.Now()) / 1e6 })
	// A count is a gauge over the state that keeps it.
	events := 0
	reg.Gauge("events", func() float64 { return float64(events) })
	eng.At(2500*sim.Microsecond, func() { events++ })

	s := StartSampler(eng, reg, sim.Millisecond, 5*sim.Millisecond)
	if s == nil {
		t.Fatal("sampler must start on an enabled registry")
	}
	eng.Run(5 * sim.Millisecond)

	if s.Samples() != 5 {
		t.Fatalf("Samples = %d, want 5 (1ms..5ms)", s.Samples())
	}
	ts := s.TimeSeries()
	if ts.Len() != 5 || ts.IntervalNS != int64(sim.Millisecond) {
		t.Fatalf("Len = %d interval = %d", ts.Len(), ts.IntervalNS)
	}
	for i, want := range []int64{1e6, 2e6, 3e6, 4e6, 5e6} {
		if ts.TimesNS[i] != want {
			t.Errorf("TimesNS[%d] = %d, want %d", i, ts.TimesNS[i], want)
		}
	}
	if got := ts.Series["time_ms"]; got[0] != 1 || got[4] != 5 {
		t.Errorf("gauge column = %v", got)
	}
	// The event fired between ticks 2 and 3: cumulative 0,0,1,1,1.
	if got := ts.Series["events"]; got[1] != 0 || got[2] != 1 || got[4] != 1 {
		t.Errorf("count column = %v", got)
	}
	if l := s.Latest(); l["time_ms"] != 5 || l["events"] != 1 {
		t.Errorf("Latest = %v", l)
	}
}

func TestSamplerNilAndDegenerate(t *testing.T) {
	var s *Sampler
	if s.Samples() != 0 || s.Interval() != 0 || s.TimeSeries() != nil || s.Latest() != nil {
		t.Error("nil sampler accessors must be inert")
	}
	if b := s.Prometheus(); !bytes.Contains(b, []byte("# VIP")) {
		t.Errorf("nil sampler Prometheus = %q", b)
	}
	eng := sim.NewEngine()
	if StartSampler(eng, NewRegistry(), 0, sim.Second) != nil {
		t.Error("non-positive interval must disable sampling")
	}
	if eng.Pending() != 0 {
		t.Error("disabled sampler must not enqueue events")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative horizon must panic")
		}
	}()
	StartSampler(eng, NewRegistry(), sim.Millisecond, -1)
}

func TestSamplerBackfillsLateMetrics(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	// Register a gauge only after the first tick has happened.
	eng.At(1500*sim.Microsecond, func() {
		reg.Gauge("late", func() float64 { return 7 })
	})
	s := StartSampler(eng, reg, sim.Millisecond, 3*sim.Millisecond)
	eng.Run(3 * sim.Millisecond)
	got := s.TimeSeries().Series["late"]
	if len(got) != 3 || got[0] != 0 || got[1] != 7 || got[2] != 7 {
		t.Errorf("late column = %v, want [0 7 7]", got)
	}
}

// sampledRun drives a tiny deterministic scenario and returns its
// exported JSON and CSV bytes.
func sampledRun(t *testing.T) (jsonb, csvb []byte) {
	t.Helper()
	eng := sim.NewEngine()
	reg := NewRegistry()
	reg.Gauge("b.gauge", func() float64 { return float64(eng.Now() / sim.Millisecond) })
	reg.Gauge("a.gauge", func() float64 { return 0.5 })
	count := 0.0
	reg.Gauge("c.count", func() float64 { return count })
	eng.At(500*sim.Microsecond, func() { count += 2 })
	s := StartSampler(eng, reg, sim.Millisecond, 2*sim.Millisecond)
	eng.Run(2 * sim.Millisecond)
	var j, cv bytes.Buffer
	if err := s.TimeSeries().WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := s.TimeSeries().WriteCSV(&cv); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), cv.Bytes()
}

func TestExportDeterminism(t *testing.T) {
	j1, c1 := sampledRun(t)
	j2, c2 := sampledRun(t)
	if !bytes.Equal(j1, j2) {
		t.Error("two identical runs must export byte-identical JSON")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("two identical runs must export byte-identical CSV")
	}
	if !strings.Contains(string(j1), `"interval_ns"`) {
		t.Errorf("JSON missing schema fields:\n%s", j1)
	}
	lines := strings.Split(strings.TrimSpace(string(c1)), "\n")
	if lines[0] != "time_ns,a.gauge,b.gauge,c.count" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if len(lines) != 3 || lines[1] != "1000000,0.5,1,2" {
		t.Errorf("CSV rows = %q", lines[1:])
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"dram.bandwidth_bps": "vip_dram_bandwidth_bps",
		"ip.VD.busy_frac":    "vip_ip_VD_busy_frac",
		"weird-name!":        "vip_weird_name_",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	var b bytes.Buffer
	err := WritePrometheus(&b, map[string]float64{"b.x": 2, "a.y": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	want := "# TYPE vip_a_y gauge\nvip_a_y 1.5\n# TYPE vip_b_x gauge\nvip_b_x 2\n"
	if b.String() != want {
		t.Errorf("prometheus text = %q, want %q", b.String(), want)
	}
}

func TestSamplerPrometheus(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	reg.Gauge("q.depth", func() float64 { return 3 })
	s := StartSampler(eng, reg, sim.Millisecond, sim.Millisecond)
	eng.Run(sim.Millisecond)
	out := string(s.Prometheus())
	if !strings.Contains(out, "vip_sim_time_ns 1000000\n") {
		t.Errorf("missing sim time:\n%s", out)
	}
	if !strings.Contains(out, "vip_q_depth 3\n") {
		t.Errorf("missing gauge:\n%s", out)
	}
}
