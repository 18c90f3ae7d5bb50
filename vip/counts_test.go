package vip_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/vipsim/vip/vip"
)

// TestCountsMirrorReport: every count in the report's Counters is a sum
// of fields the report already carries, and its sampled column climbs
// to it. It covers a faulted run that retries frames and a game run that
// rolls back.
func TestCountsMirrorReport(t *testing.T) {
	faulted := runOnce(t, 7)
	checkCounts(t, "faulted A5+A2+A6", faulted.report, faulted.tsJSON, true)

	res, err := vip.Simulate(vip.Scenario{
		System:          vip.SystemVIP,
		Apps:            []string{"A1", "A1"},
		Duration:        vip.Second,
		Seed:            3,
		MetricsInterval: vip.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var report, ts bytes.Buffer
	if err := res.WriteReportJSON(&report); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteTimeSeriesJSON(&ts); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, "2xA1", report.Bytes(), ts.Bytes(), false)
}

// checkCounts decodes one run's report and time series and holds each
// count to its sum of report fields.
func checkCounts(t *testing.T, label string, reportJSON, tsJSON []byte, faulted bool) {
	t.Helper()
	var rep struct {
		Flows []struct {
			Frames, Complete, Dropped, Violations int
		}
		Rollbacks int
		Faults    *struct {
			FrameTimeouts, FrameRetries, FramesFailed, DegradedFlows int
		}
		Counters map[string]float64
	}
	if err := json.Unmarshal(reportJSON, &rep); err != nil {
		t.Fatalf("%s: report: %v", label, err)
	}
	var ts struct {
		Series map[string][]float64 `json:"series"`
	}
	if err := json.Unmarshal(tsJSON, &ts); err != nil {
		t.Fatalf("%s: time series: %v", label, err)
	}

	want := map[string]int{"game.rollbacks_total": rep.Rollbacks}
	for _, f := range rep.Flows {
		want["frames.released_total"] += f.Frames - f.Dropped
		want["frames.completed_total"] += f.Complete
		want["frames.dropped_total"] += f.Dropped
		want["qos.violations_total"] += f.Violations - f.Dropped
	}
	if f := rep.Faults; f != nil {
		want["fault.frame_timeouts_total"] = f.FrameTimeouts
		want["fault.frame_retries_total"] = f.FrameRetries
		want["fault.frames_failed_total"] = f.FramesFailed
		want["fault.degraded_flows_total"] = f.DegradedFlows
	}
	// Each run must exercise what it checks.
	switch {
	case faulted && (rep.Faults == nil || rep.Faults.FrameRetries == 0):
		t.Fatalf("%s: no frame retries", label)
	case !faulted && rep.Rollbacks == 0:
		t.Fatalf("%s: no rollbacks", label)
	}

	if len(rep.Counters) != len(want) {
		t.Errorf("%s: %d counts, want %d: %v", label, len(rep.Counters), len(want), rep.Counters)
	}
	for name, n := range want {
		got, ok := rep.Counters[name]
		if !ok || got != float64(n) {
			t.Errorf("%s: %s = %v (present %v), report fields sum to %d", label, name, got, ok, n)
		}
		col := ts.Series[name]
		if len(col) == 0 {
			t.Errorf("%s: %s has no time-series column", label, name)
		}
		for i, v := range col {
			if i > 0 && v < col[i-1] {
				t.Errorf("%s: %s falls from %v to %v at sample %d", label, name, col[i-1], v, i)
				break
			}
			if v > got {
				t.Errorf("%s: %s samples %v at %d, above its final %v", label, name, v, i, got)
				break
			}
		}
	}
}
