package vip_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/vipsim/vip/vip"
)

// goldenDigests pins the SHA-256 of the report bytes of a few short runs,
// keyed by the engine revision that produced them. A refactor must leave
// every digest of the current EngineVersion unchanged; a change that
// alters simulated output bumps sim.EngineVersion and records a new
// entry here (the failure message prints it ready to paste).
var goldenDigests = map[string]map[string]string{
	"vip-engine/1": {
		"4xA5/Baseline/report":      "3ed91656822c7c6ba3b2f54ebc89fbebd645afb4036bb15703bb9ccc94dbd9f2",
		"4xA5/VIP/report":           "7a622cac044a9882fa3405b6e04870a1efc178835f48b6c7b11a69e1b25beadd",
		"4xA5/VIP/ts-json-1us":      "447c5b8a339480057d3fd1c5cf333b0e3fcd6e5e9685b8a691d06389355430a4",
		"W4/IP-to-IP+FB/report":     "95a4ac975a618b4314cfc99758bbb2316d8e335a29f57be2bec6a15767bce35e",
		"faulted-baseline/report":   "73bf8f569a1a2997ce253f4fb2b5d129aaca19990e489c967ac73da4e0358a71",
		"faulted-norecovery/report": "deac3d6b37771bf1734dcc49640eebf894070d2bab399f8807279649b540fd6d",
		"faulted-traced/report":     "21db4bea38743ce9c2c5de27bf9f9b26706ba359377a5eb9c73fb1fd713f2f75",
		"faulted-traced/ts-json":    "ff1670ad4652bbb67a1c525783d7581780c4d342c8c6e53a601b94b3212db7e4",
		"faulted-traced/spans":      "9475501228a3f12bf829e526d06adbbb61ae3f731c8df16a59813e4132e719d7",
	},
}

// goldenRuns computes the digests goldenDigests pins: 4×A5 on Baseline
// and on VIP, the W4 mix on IP-to-IP+FB, a 1 µs time series of 4×A5 on
// VIP, the faulted, metered, traced scenario of TestSameSeedByteIdentical
// (report, time series and span log), and the other two arms of its
// fault mix: recovery off on VIP, and recovery on over Baseline.
func goldenRuns(t *testing.T) map[string]string {
	t.Helper()
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	got := map[string]string{}
	for _, c := range []struct {
		key string
		sc  vip.Scenario
	}{
		{"4xA5/Baseline", vip.Scenario{System: vip.SystemBaseline, Apps: []string{"A5", "A5", "A5", "A5"}}},
		{"4xA5/VIP", vip.Scenario{System: vip.SystemVIP, Apps: []string{"A5", "A5", "A5", "A5"}}},
		{"W4/IP-to-IP+FB", vip.Scenario{System: vip.SystemIPToIPBurst, Apps: []string{"W4"}}},
	} {
		sc := c.sc
		sc.Duration = 100 * vip.Millisecond
		sc.Seed = 1
		res, err := vip.Simulate(sc)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		var buf bytes.Buffer
		if err := res.WriteReportJSON(&buf); err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		got[c.key+"/report"] = sum(buf.Bytes())
	}
	// The other arms of runOnce's fault mix, without metrics or spans.
	// Each must exercise what it pins: recovery acts on Baseline too,
	// and nothing recovers with recovery off.
	noRecovery := &vip.Faults{Rate: 0.02}
	noRecovery.DisableRecovery = true
	for _, c := range []struct {
		key      string
		sys      vip.System
		faults   *vip.Faults
		recovers bool
	}{
		{"faulted-norecovery", vip.SystemVIP, noRecovery, false},
		{"faulted-baseline", vip.SystemBaseline, &vip.Faults{Rate: 0.02}, true},
	} {
		res, err := vip.Simulate(vip.Scenario{System: c.sys, Apps: []string{"A5", "A2", "A6"},
			Duration: 120 * vip.Millisecond, Seed: 7, Faults: c.faults})
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if res.FaultsInjected == 0 || (res.FrameTimeouts > 0) != c.recovers {
			t.Errorf("%s: %d faults injected, %d frame timeouts", c.key, res.FaultsInjected, res.FrameTimeouts)
		}
		var buf bytes.Buffer
		if err := res.WriteReportJSON(&buf); err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		got[c.key+"/report"] = sum(buf.Bytes())
	}
	// Sampling every microsecond reads the sim.pending_events gauge
	// between nearly every pair of instants, so it pins the engine's
	// pending count, which no report carries, where back-to-back
	// patience wake-ups and refresh events are queued.
	res, err := vip.Simulate(vip.Scenario{System: vip.SystemVIP, Apps: []string{"A5", "A5", "A5", "A5"},
		Duration: 10 * vip.Millisecond, Seed: 1, MetricsInterval: vip.Millisecond / 1000})
	if err != nil {
		t.Fatalf("4xA5/VIP/ts-json-1us: %v", err)
	}
	var ts bytes.Buffer
	if err := res.WriteTimeSeriesJSON(&ts); err != nil {
		t.Fatalf("4xA5/VIP/ts-json-1us: %v", err)
	}
	got["4xA5/VIP/ts-json-1us"] = sum(ts.Bytes())
	faulted := runOnce(t, 7)
	got["faulted-traced/report"] = sum(faulted.report)
	got["faulted-traced/ts-json"] = sum(faulted.tsJSON)
	got["faulted-traced/spans"] = sum(faulted.spanJSONL)
	return got
}

// TestGoldenReportDigests pins report bytes across commits: the same
// scenarios on the same EngineVersion must keep producing the same
// bytes, not merely the same bytes twice within one build.
func TestGoldenReportDigests(t *testing.T) {
	got := formatDigests(goldenRuns(t))
	want, ok := goldenDigests[vip.EngineVersion]
	if !ok {
		t.Fatalf("no golden digests recorded for %s; record:\n%s", vip.EngineVersion, got)
	}
	if w := formatDigests(want); got != w {
		t.Errorf("report digests of %s changed; this build's:\n%s\npinned:\n%s", vip.EngineVersion, got, w)
	}
}

// formatDigests renders digests as goldenDigests entries, sorted by key.
func formatDigests(d map[string]string) string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "\t\t%q: %q,\n", k, d[k])
	}
	return b.String()
}
