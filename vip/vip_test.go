package vip

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const testDur = 150 * Millisecond

func TestSimulateBaselineVideo(t *testing.T) {
	res, err := Simulate(Scenario{System: SystemBaseline, Apps: []string{"A5"}, Duration: testDur})
	if err != nil {
		t.Fatal(err)
	}
	if res.DisplayedFrames == 0 {
		t.Fatal("no frames displayed")
	}
	if res.TotalEnergyJ <= 0 || res.EnergyPerFrameJ <= 0 {
		t.Error("energy must be positive")
	}
	if res.AvgBandwidthGBps <= 0 {
		t.Error("baseline video must move memory traffic")
	}
	sum := res.Summary()
	for _, want := range []string{"Baseline", "energy:", "display:"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q", want)
		}
	}
}

func TestSimulateWorkloadExpansion(t *testing.T) {
	res, err := Simulate(Scenario{System: SystemVIP, Apps: []string{"W1"}, Duration: testDur})
	if err != nil {
		t.Fatal(err)
	}
	// W1 = two video players: two display flows plus two audio flows.
	if len(res.Flows) != 4 {
		t.Errorf("W1 expanded to %d flows, want 4", len(res.Flows))
	}
}

func TestSimulateUnknownIDs(t *testing.T) {
	if _, err := Simulate(Scenario{System: SystemVIP, Apps: []string{"A9"}}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := Simulate(Scenario{System: SystemVIP, Apps: []string{"W9"}}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Simulate(Scenario{System: SystemVIP}); err == nil {
		t.Error("empty app list accepted")
	}
	if _, err := Simulate(Scenario{System: System(99), Apps: []string{"A5"}}); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestSystemsAndNames(t *testing.T) {
	ss := Systems()
	if len(ss) != 5 {
		t.Fatalf("Systems() = %v", ss)
	}
	if SystemVIP.String() != "VIP" || SystemBaseline.String() != "Baseline" {
		t.Error("system names wrong")
	}
	// System is platform.Mode, so an out-of-range design renders the
	// mode placeholder.
	if System(42).String() != "Mode?" {
		t.Error("unknown system should render Mode?")
	}
}

// TestParseSystemSpellings pins the one table of design spellings that
// vipsim, viptrace and vipserve parse -system through, and its error.
func TestParseSystemSpellings(t *testing.T) {
	for _, c := range []struct {
		want  System
		names []string
	}{
		{SystemBaseline, []string{"baseline", "base", "Baseline"}},
		{SystemFrameBurst, []string{"frameburst", "fb", "burst"}},
		{SystemIPToIP, []string{"iptoip", "ip2ip", "chain"}},
		{SystemIPToIPBurst, []string{"iptoipburst", "ip2ip+fb", "chainburst"}},
		{SystemVIP, []string{"vip", "VIP"}},
	} {
		for _, n := range c.names {
			if got, err := ParseSystem(n); err != nil || got != c.want {
				t.Errorf("ParseSystem(%q) = %v, %v; want %v", n, got, err, c.want)
			}
		}
	}
	want := `vip: unknown system "gpu" (baseline|frameburst|iptoip|iptoipburst|vip)`
	if _, err := ParseSystem("gpu"); err == nil || err.Error() != want {
		t.Errorf("ParseSystem(gpu) error = %v, want %s", err, want)
	}
}

func TestCatalogIDs(t *testing.T) {
	if len(AppIDs()) != 7 {
		t.Errorf("AppIDs = %v", AppIDs())
	}
	if len(WorkloadIDs()) != 8 {
		t.Errorf("WorkloadIDs = %v", WorkloadIDs())
	}
}

func TestVIPBeatsBaselineEnergy(t *testing.T) {
	base, err := Simulate(Scenario{System: SystemBaseline, Apps: []string{"W1"}, Duration: testDur})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Simulate(Scenario{System: SystemVIP, Apps: []string{"W1"}, Duration: testDur})
	if err != nil {
		t.Fatal(err)
	}
	if v.EnergyPerFrameJ >= base.EnergyPerFrameJ {
		t.Errorf("VIP %.3f mJ/frame should beat baseline %.3f",
			v.EnergyPerFrameJ*1e3, base.EnergyPerFrameJ*1e3)
	}
	if v.Interrupts >= base.Interrupts {
		t.Error("VIP should take fewer interrupts")
	}
	if v.AvgBandwidthGBps >= base.AvgBandwidthGBps/4 {
		t.Error("VIP chains should slash DRAM traffic")
	}
}

func TestIdealMemoryOption(t *testing.T) {
	real, err := Simulate(Scenario{System: SystemBaseline, Apps: []string{"A5", "A5", "A5", "A5"}, Duration: testDur})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Simulate(Scenario{System: SystemBaseline, Apps: []string{"A5", "A5", "A5", "A5"},
		Duration: testDur, IdealMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if ideal.AvgFlowTimeMS >= real.AvgFlowTimeMS {
		t.Errorf("ideal memory (%v ms) should beat real (%v ms)", ideal.AvgFlowTimeMS, real.AvgFlowTimeMS)
	}
}

func TestIPStatsAccessor(t *testing.T) {
	res, err := Simulate(Scenario{System: SystemBaseline, Apps: []string{"A5"}, Duration: testDur})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := res.IPStats("VD")
	if !ok || st.Frames == 0 {
		t.Error("VD should have processed frames")
	}
	if _, ok := res.IPStats("XX"); ok {
		t.Error("unknown IP reported stats")
	}
	if u, ok := res.IPUtilization["VD"]; !ok || u <= 0 || u > 1 {
		t.Errorf("VD utilization = %v", u)
	}
}

func TestBuilderCustomApp(t *testing.T) {
	spec, err := NewApp("X1", "Cam2Net", "encode").
		GOP(8).
		Flow("stream", 30, 0).
		Stage(Camera, FrameCamera).
		Stage(VideoEncoder, BitstreamCam).
		Stage(Network, 0).
		CPUWork(10 * 1000).
		Display().
		Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateApps(Scenario{System: SystemVIP, Duration: testDur}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.DisplayedFrames == 0 {
		t.Error("custom app produced no frames")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewApp("X", "x", "nonsense").Build(); err == nil {
		t.Error("bad class accepted")
	}
	if _, err := NewApp("X", "x", "game").Build(); err == nil {
		t.Error("app without flows accepted")
	}
	_, err := NewApp("X", "x", "game").
		Flow("f", 60, 100).Stage(IP("??"), 0).Display().Done().Build()
	if err == nil {
		t.Error("unknown IP accepted")
	}
}

func TestBuilderTouchModes(t *testing.T) {
	for _, build := range []func(*AppBuilder) *AppBuilder{
		func(b *AppBuilder) *AppBuilder { return b.TapDriven() },
		func(b *AppBuilder) *AppBuilder { return b.FlickDriven() },
	} {
		spec, err := build(NewApp("G", "game", "game")).
			Flow("render", 60, 256<<10).
			Stage(GPU, FrameRender).
			Stage(Display, 0).
			CPUWork(50 * 1000).
			Display().
			Done().Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SimulateApps(Scenario{System: SystemVIP, Duration: testDur}, spec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	sc := Scenario{System: SystemVIP, Apps: []string{"A1"}, Duration: testDur, Seed: 3}
	a, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEnergyJ != b.TotalEnergyJ || a.DisplayedFrames != b.DisplayedFrames {
		t.Error("same scenario must reproduce bit-for-bit")
	}
}

func TestChromeTraceOption(t *testing.T) {
	var buf bytes.Buffer
	_, err := Simulate(Scenario{
		System: SystemVIP, Apps: []string{"A3"},
		Duration: 30 * Millisecond, ChromeTrace: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(evs) < 10 {
		t.Errorf("trace has only %d events", len(evs))
	}
}

// TestMetricsTimeSeries pins the headline observability acceptance: a
// metered run exports a time series with the paper's key probes at the
// configured interval, byte-identically across same-seed runs.
func TestMetricsTimeSeries(t *testing.T) {
	sc := Scenario{
		System: SystemVIP, Apps: []string{"A5", "A5"},
		Duration: 100 * Millisecond, MetricsInterval: Millisecond,
	}
	run := func() (*Result, []byte) {
		t.Helper()
		res, err := Simulate(sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteTimeSeriesJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	res, j1 := run()
	if !res.HasTimeSeries() {
		t.Fatal("metered run must carry a time series")
	}
	if got := res.MetricSamples(); got != 100 {
		t.Errorf("samples = %d, want 100 (100ms at 1ms)", got)
	}
	names := res.MetricNames()
	if len(names) < 5 {
		t.Fatalf("only %d metrics: %v", len(names), names)
	}
	for _, want := range []string{
		"dram.bandwidth_bps", "dram.queue_depth", "noc.link_util",
		"ip.VD.occupancy", "cpu.deep_sleep_frac", "sim.pending_events",
	} {
		if res.MetricSeries(want) == nil {
			t.Errorf("metric %q missing from %d-name series", want, len(names))
		}
	}
	if s := res.MetricSeries("dram.bytes_total"); len(s) > 0 && s[len(s)-1] == 0 {
		t.Error("dram.bytes_total stayed zero over a video workload")
	}
	if _, j2 := run(); !bytes.Equal(j1, j2) {
		t.Error("same-seed runs must export byte-identical time-series JSON")
	}
	var csv bytes.Buffer
	if err := res.WriteTimeSeriesCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "time_ns,") {
		t.Errorf("csv header = %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
	var rep bytes.Buffer
	if err := res.WriteReportJSON(&rep); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(rep.Bytes()) {
		t.Error("report JSON invalid")
	}
}

// TestMetricsDisabled checks the zero-cost default: no interval, no
// series, and the writers refuse politely.
func TestMetricsDisabled(t *testing.T) {
	res, err := Simulate(Scenario{System: SystemVIP, Apps: []string{"A1"}, Duration: 30 * Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.HasTimeSeries() || res.MetricNames() != nil || res.MetricSamples() != 0 ||
		res.MetricSeries("dram.queue_depth") != nil {
		t.Error("disabled metrics must leave no series")
	}
	var buf bytes.Buffer
	if err := res.WriteTimeSeriesJSON(&buf); err == nil {
		t.Error("WriteTimeSeriesJSON must fail without MetricsInterval")
	}
	if err := res.WriteTimeSeriesCSV(&buf); err == nil {
		t.Error("WriteTimeSeriesCSV must fail without MetricsInterval")
	}
}

// TestMetricsSnapshotHook checks the live-endpoint publishing path: the
// hook fires once per sampler tick with a Prometheus-format snapshot.
func TestMetricsSnapshotHook(t *testing.T) {
	var snaps int
	var last []byte
	_, err := Simulate(Scenario{
		System: SystemVIP, Apps: []string{"A1"},
		Duration: 20 * Millisecond, MetricsInterval: 5 * Millisecond,
		OnMetricsSnapshot: func(prom []byte) { snaps++; last = prom },
	})
	if err != nil {
		t.Fatal(err)
	}
	if snaps != 4 {
		t.Errorf("snapshots = %d, want 4 (20ms at 5ms)", snaps)
	}
	if !strings.Contains(string(last), "vip_sim_time_ns 20000000") {
		t.Errorf("last snapshot missing sim time:\n%s", last)
	}
	if !strings.Contains(string(last), "vip_dram_bandwidth_bps") {
		t.Errorf("snapshot missing dram gauge:\n%s", last)
	}
}
