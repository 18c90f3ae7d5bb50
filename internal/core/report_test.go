package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/workload"
)

// metricsRun executes one short metered scenario and returns its report.
func metricsRun(t testing.TB) *Report {
	t.Helper()
	a, err := workload.App("A5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := platform.DefaultConfig(platform.VIP)
	cfg.Metrics = metrics.NewRegistry()
	p := platform.New(cfg)
	opts := DefaultOptions(platform.VIP)
	opts.Duration = 100 * sim.Millisecond
	opts.MetricsInterval = sim.Millisecond
	r, err := NewRunner(p, []app.Spec{a}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReportJSONRoundTrip pins the acceptance requirement that the full
// machine-readable report survives encode → decode → encode with no loss:
// the schema is stable and every field round-trips through encoding/json.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := metricsRun(t)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report JSON does not decode: %v", err)
	}
	re, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	var a, b map[string]any
	if err := json.Unmarshal(buf.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(re, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		for k := range a {
			if !reflect.DeepEqual(a[k], b[k]) {
				t.Errorf("field %q does not round-trip", k)
			}
		}
	}
}

// TestReportSelfProfile checks the simulator's own observability: the
// report carries engine event counts and the sampler's sample count.
func TestReportSelfProfile(t *testing.T) {
	rep := metricsRun(t)
	if rep.Sim.EventsFired == 0 {
		t.Error("EventsFired must be counted")
	}
	if rep.Sim.MetricsSamples != 100 || rep.Sim.MetricsIntervalNS != int64(sim.Millisecond) {
		t.Errorf("sampler profile = %+v, want 100 samples at 1ms", rep.Sim)
	}
	if len(rep.Counters) == 0 || len(rep.Distributions) == 0 {
		t.Error("metered run must export counters and distributions")
	}
	if rep.Counters["frames.completed_total"] == 0 {
		t.Errorf("frames.completed_total missing: %v", rep.Counters)
	}
}
