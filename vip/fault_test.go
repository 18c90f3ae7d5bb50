package vip_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/vipsim/vip/vip"
)

func faultedScenario(rate float64) vip.Scenario {
	return vip.Scenario{
		System:          vip.SystemVIP,
		Apps:            []string{"A5"},
		Duration:        250 * vip.Millisecond,
		MetricsInterval: vip.Millisecond,
		Faults:          &vip.Faults{Rate: rate},
	}
}

// TestFaultRecoveryImprovesQoS is the headline robustness claim: at a
// moderate fault rate the recovery stack loses strictly fewer frames
// than the same platform with recovery disabled.
func TestFaultRecoveryImprovesQoS(t *testing.T) {
	sc := faultedScenario(1e-4)
	rec, err := vip.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Faults.DisableRecovery = true
	raw, err := vip.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rec.FaultsInjected == 0 {
		t.Fatal("injector drew no faults at rate 1e-4")
	}
	if rec.FrameTimeouts == 0 || rec.FrameRetries == 0 {
		t.Errorf("recovery never engaged: %d timeouts, %d retries", rec.FrameTimeouts, rec.FrameRetries)
	}
	lostRec := rec.OfferedFrames - rec.DisplayedFrames
	lostRaw := raw.OfferedFrames - raw.DisplayedFrames
	if lostRec >= lostRaw {
		t.Errorf("recovery lost %d frames, no-recovery lost %d; want strictly fewer", lostRec, lostRaw)
	}
}

// TestFaultViolationsMonotonic checks that QoS violations never improve
// as the injected fault rate grows.
func TestFaultViolationsMonotonic(t *testing.T) {
	prev := -1.0
	for _, rate := range []float64{0, 1e-4, 5e-4, 2e-3} {
		sc := vip.Scenario{System: vip.SystemVIP, Apps: []string{"A5"}, Duration: 250 * vip.Millisecond}
		if rate > 0 {
			sc.Faults = &vip.Faults{Rate: rate}
		}
		res, err := vip.Simulate(sc)
		if err != nil {
			t.Fatalf("rate %g: %v", rate, err)
		}
		if res.ViolationRate < prev {
			t.Errorf("violations fell from %.3f to %.3f as rate rose to %g", prev, res.ViolationRate, rate)
		}
		prev = res.ViolationRate
	}
}

// TestFaultDeterminism runs the same faulted scenario twice and demands
// byte-identical metric time series and (minus the simulator's own
// wall-clock self-profile) byte-identical reports.
func TestFaultDeterminism(t *testing.T) {
	run := func() (ts, rep []byte) {
		res, err := vip.Simulate(faultedScenario(2e-4))
		if err != nil {
			t.Fatal(err)
		}
		var tsBuf, repBuf bytes.Buffer
		if err := res.WriteTimeSeriesJSON(&tsBuf); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteReportJSON(&repBuf); err != nil {
			t.Fatal(err)
		}
		return tsBuf.Bytes(), stripSimProfile(t, repBuf.Bytes())
	}
	ts1, rep1 := run()
	ts2, rep2 := run()
	if !bytes.Equal(ts1, ts2) {
		t.Error("time-series JSON differs between identical faulted runs")
	}
	if !bytes.Equal(rep1, rep2) {
		t.Errorf("report JSON differs between identical faulted runs:\n--- run1\n%s\n--- run2\n%s", rep1, rep2)
	}
}

// stripSimProfile removes the Sim section (wall-clock throughput, heap),
// which measures the simulator process rather than the simulation.
func stripSimProfile(t *testing.T, rep []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(rep, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "Sim")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFaultLayerZeroCostWhenDisabled pins the bit-identical-when-off
// contract: a fault-free run must expose no fault metrics and no Faults
// report section.
func TestFaultLayerZeroCostWhenDisabled(t *testing.T) {
	sc := faultedScenario(0)
	sc.Faults = nil
	res, err := vip.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.MetricNames() {
		if strings.Contains(name, "fault") || strings.Contains(name, "retransmit") ||
			strings.Contains(name, "ecc") {
			t.Errorf("fault-free run exposes fault metric %q", name)
		}
	}
	var rep bytes.Buffer
	if err := res.WriteReportJSON(&rep); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"\"Faults\"", "\"ECCRetries\"", "\"Retransmits\"", "\"Hangs\""} {
		if bytes.Contains(rep.Bytes(), []byte(key)) {
			t.Errorf("fault-free report JSON contains %s", key)
		}
	}
	if res.FaultsInjected != 0 || res.FrameTimeouts != 0 {
		t.Error("fault counters non-zero on a fault-free run")
	}
}

// TestScenarioValidation covers the hardened Scenario checks: negative
// knobs and fault rates outside [0,1], or whose lowered mix is not a
// probability, fail with descriptive errors instead of being silently
// ignored.
func TestScenarioValidation(t *testing.T) {
	base := vip.Scenario{System: vip.SystemVIP, Apps: []string{"A5"}, Duration: 10 * vip.Millisecond}
	cases := []struct {
		name string
		mut  func(*vip.Scenario)
	}{
		{"negative duration", func(sc *vip.Scenario) { sc.Duration = -1 }},
		{"negative burst", func(sc *vip.Scenario) { sc.BurstSize = -1 }},
		{"negative lane buffer", func(sc *vip.Scenario) { sc.LaneBufferBytes = -5 }},
		{"negative metrics interval", func(sc *vip.Scenario) { sc.MetricsInterval = -1 }},
		{"fault rate above one", func(sc *vip.Scenario) { sc.Faults = &vip.Faults{Rate: 1.5} }},
		{"negative fault rate", func(sc *vip.Scenario) { sc.Faults = &vip.Faults{Rate: -0.1} }},
		{"NaN fault rate", func(sc *vip.Scenario) { sc.Faults = &vip.Faults{Rate: math.NaN()} }},
		{"fault mix above one", func(sc *vip.Scenario) { sc.Faults = &vip.Faults{Rate: 1} }},
	}
	for _, tc := range cases {
		sc := base
		tc.mut(&sc)
		if _, err := vip.Simulate(sc); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := vip.Simulate(base); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}
