package vip

import (
	"bytes"
	"strings"
	"testing"
)

// TestCanonicalDefaultsCollapse holds the canonicalization contract: a
// scenario spelled with implicit defaults and the same scenario spelled
// with every default written out are the same bytes and the same hash,
// and they are the same run: their reports are byte-identical.
func TestCanonicalDefaultsCollapse(t *testing.T) {
	implicit := Scenario{System: SystemVIP, Apps: []string{"A5", "A5"}}
	explicit := Scenario{
		System:          SystemVIP,
		Apps:            []string{"A5", "A5"},
		Duration:        500 * Millisecond,
		BurstSize:       5,
		Seed:            1,
		LaneBufferBytes: 2048,
	}
	ci, err := implicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	ce, err := explicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(ci) != string(ce) {
		t.Errorf("implicit and explicit defaults canonicalize differently:\n%s\nvs\n%s", ci, ce)
	}
	hi, _ := implicit.Hash()
	he, _ := explicit.Hash()
	if hi != he {
		t.Errorf("hashes differ: %s vs %s", hi, he)
	}
	report := func(sc Scenario) []byte {
		t.Helper()
		res, err := Simulate(sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteReportJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if ri, re := report(implicit), report(explicit); !bytes.Equal(ri, re) {
		t.Error("implicit and explicit defaults share a hash but produce different reports")
	}
}

// TestCanonicalWorkloadExpansion: a Table 2 workload id and its Table 1
// expansion describe the same run, so they share a canonical form.
func TestCanonicalWorkloadExpansion(t *testing.T) {
	w, err := Scenario{System: SystemVIP, Apps: []string{"W1"}}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Scenario{System: SystemVIP, Apps: []string{"A5", "A5"}}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if w != a {
		t.Errorf("W1 and A5,A5 hash differently: %s vs %s", w, a)
	}
	// Order is semantic: a different app sequence is a different run.
	ba, err := Scenario{System: SystemVIP, Apps: []string{"A5", "A4"}}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ab, err := Scenario{System: SystemVIP, Apps: []string{"A4", "A5"}}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ba == ab {
		t.Error("app order should be semantic but hashes collide")
	}
}

// TestCanonicalFieldSensitivity: every semantic field change flips the
// hash, and host-side observers do not.
func TestCanonicalFieldSensitivity(t *testing.T) {
	base := Scenario{System: SystemVIP, Apps: []string{"A5"}}
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string]Scenario{
		"System":          {System: SystemBaseline, Apps: []string{"A5"}},
		"Apps":            {System: SystemVIP, Apps: []string{"A4"}},
		"Duration":        {System: SystemVIP, Apps: []string{"A5"}, Duration: 100 * Millisecond},
		"BurstSize":       {System: SystemVIP, Apps: []string{"A5"}, BurstSize: 7},
		"Seed":            {System: SystemVIP, Apps: []string{"A5"}, Seed: 2},
		"IdealMemory":     {System: SystemVIP, Apps: []string{"A5"}, IdealMemory: true},
		"LaneBufferBytes": {System: SystemVIP, Apps: []string{"A5"}, LaneBufferBytes: 4096},
		"MetricsInterval": {System: SystemVIP, Apps: []string{"A5"}, MetricsInterval: Millisecond},
		"Faults":          {System: SystemVIP, Apps: []string{"A5"}, Faults: &Faults{Rate: 1e-4}},
	}
	seen := map[string]string{baseHash: "base"}
	for field, sc := range mutations {
		h, err := sc.Hash()
		if err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %s collides with %s (hash %s)", field, prev, h)
		}
		seen[h] = field
	}

	// Distinct fault knobs are distinct runs too.
	f1 := base
	f1.Faults = &Faults{Rate: 1e-4}
	f2 := base
	f2.Faults = &Faults{Rate: 2e-4}
	h1, _ := f1.Hash()
	h2, _ := f2.Hash()
	if h1 == h2 {
		t.Error("different fault rates hash identically")
	}
	f3 := f1
	f3.Faults = &Faults{Rate: 1e-4}
	f3.Faults.DisableRecovery = true
	h3, _ := f3.Hash()
	if h3 == h1 {
		t.Error("DisableRecovery should flip the hash")
	}

	// Host-side observers are not semantic: a trace sink or a snapshot
	// hook changes nothing about the simulated run.
	obs := base
	obs.ChromeTrace = &strings.Builder{}
	obs.OnMetricsSnapshot = func([]byte) {}
	ho, err := obs.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ho != baseHash {
		t.Error("ChromeTrace/OnMetricsSnapshot should not affect the hash")
	}
}

// TestCanonicalRejectsInvalid: only scenarios Simulate would accept have
// a canonical form.
func TestCanonicalRejectsInvalid(t *testing.T) {
	cases := []Scenario{
		{System: System(99), Apps: []string{"A5"}},
		{System: SystemVIP, Apps: []string{"A99"}},
		{System: SystemVIP}, // no apps
		{System: SystemVIP, Apps: []string{"A5"}, Duration: -1},
	}
	for i, sc := range cases {
		if _, err := sc.Canonical(); err == nil {
			t.Errorf("case %d: Canonical() accepted an invalid scenario", i)
		}
		if _, err := sc.Hash(); err == nil {
			t.Errorf("case %d: Hash() accepted an invalid scenario", i)
		}
	}
}

// TestCanonicalGolden pins the v1 encoding and its hash byte for byte.
// If this test fails, the canonical encoding changed: bump
// CanonicalVersion (stale cache entries must not be served for a new
// encoding) and update the expectations here in the same commit.
func TestCanonicalGolden(t *testing.T) {
	sc := Scenario{
		System:   SystemVIP,
		Apps:     []string{"W1"},
		Duration: 400 * Millisecond,
		Seed:     7,
	}
	const wantCanonical = `vip.Scenario/v1
system=4
apps=A5,A5
duration_ns=400000000
burst=5
seed=7
ideal_memory=false
lane_buffer_bytes=2048
metrics_interval_ns=0
`
	const wantHash = "8e7d6fd0cd8caec99dbf9a55de1bc0370f9067464d18e0ffa7a382bde731b125"

	got, err := sc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCanonical {
		t.Errorf("canonical encoding drifted:\n got: %q\nwant: %q", got, wantCanonical)
	}
	h, err := sc.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != wantHash {
		t.Errorf("golden hash drifted: got %s want %s", h, wantHash)
	}

	// The faulted golden pins the lowered fault block: the derived seed
	// and every model's parameters, scaled from the one base rate.
	fsc := Scenario{System: SystemVIP, Apps: []string{"A5"}, Faults: &Faults{Rate: 1e-4}}
	const wantFaultTail = `faults.seed=64022
faults.lane_hang_rate=0.0001
faults.lane_hang_mean_ns=2000000
faults.permanent_rate=4e-06
faults.slowdown_rate=0.0004
faults.slowdown_factor=3
faults.dram_error_rate=2.5e-05
faults.ecc_retry_latency_ns=250
faults.noc_drop_rate=0.0001
faults.lost_interrupt_rate=0.004
faults.credit_loss_rate=0.0001
faults.disable_recovery=false
`
	const wantFaultHash = "2cd66967a75ccd35804d057bfa0fdb04b0287d8c76b430480f359af986facc7f"
	fc, err := fsc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(fc), wantFaultTail) {
		t.Errorf("fault block drifted:\n got: %q\nwant suffix: %q", fc, wantFaultTail)
	}
	if h, err := fsc.Hash(); err != nil || h != wantFaultHash {
		t.Errorf("faulted golden hash drifted: got %s (%v) want %s", h, err, wantFaultHash)
	}
}
