package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/sim"
)

// ablationDigests pins the SHA-256 of the JSON of each 40 ms ablation
// that exercises the multi-lane schedulers, keyed by the engine revision
// that produced it, as faultSweepDigests is. These runs are the only
// callers of the RR and Priority policies, of one to three VIP lanes and
// of patience 0-20 us, so a refactor of the lane scheduler must leave
// the digests of the current EngineVersion unchanged.
var ablationDigests = map[string]map[string]string{
	"vip-engine/1": {
		"sched/W1": "3423d6235d286d8440ba76377b0ec9b8850bb7459063db7911a963ee81b00eec",
		"sched/W2": "b14e6841ffca99274889e1dee1b1da264d6ccd7a6e4eb8dd43bc1e4ecda361e6",
		"lanes":    "9eaae7f83e53046ea6ccaca1c0dc1b96a7c42203edafad2aef5623ab72bfcdd8",
		"patience": "2c753d1518ebda764c297f494304fe1b31ce6bedcd7d6feed0a736f47cdcf59a",
	},
}

// TestAblationGolden pins the scheduler ablations' bytes across commits
// and checks that the digests cover what they claim to: RR rotates more
// than EDF, and zero patience switches more than 5 us does.
func TestAblationGolden(t *testing.T) {
	const dur = 40 * sim.Millisecond
	want, ok := ablationDigests[sim.EngineVersion]
	if !ok {
		t.Fatalf("no ablation digests recorded for %s", sim.EngineVersion)
	}
	pin := func(name string, result any) {
		b, err := json.Marshal(result)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s digest of %s changed: got %s, pinned %s", name, sim.EngineVersion, got, want[name])
		}
	}
	for _, w := range []string{"W1", "W2"} {
		st, err := RunSchedulerStudy(w, dur)
		if err != nil {
			t.Fatal(err)
		}
		byPolicy := map[ipcore.Policy]SchedRow{}
		for _, r := range st.Rows {
			byPolicy[r.Policy] = r
		}
		if rr, edf := byPolicy[ipcore.RR].CtxSwitches, byPolicy[ipcore.EDF].CtxSwitches; rr <= edf {
			t.Errorf("%s: RR switched %d times, EDF %d; RR should rotate more", w, rr, edf)
		}
		pin("sched/"+w, st)
	}
	lanes, err := RunLaneSweep(dur)
	if err != nil {
		t.Fatal(err)
	}
	pin("lanes", lanes)
	pat, err := RunPatienceSweep(dur)
	if err != nil {
		t.Fatal(err)
	}
	if zero, five := pat.Rows[0], pat.Rows[3]; zero.CtxSwitches <= five.CtxSwitches {
		t.Errorf("patience %s switched %d times, %s %d; zero patience should switch more",
			zero.Label, zero.CtxSwitches, five.Label, five.CtxSwitches)
	}
	pin("patience", pat)
}

func TestSchedulerStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	st, err := RunSchedulerStudy("W1", 250*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Rows) != 3 {
		t.Fatalf("rows = %d", len(st.Rows))
	}
	byPolicy := map[ipcore.Policy]SchedRow{}
	for _, r := range st.Rows {
		byPolicy[r.Policy] = r
	}
	edf, rr, prio := byPolicy[ipcore.EDF], byPolicy[ipcore.RR], byPolicy[ipcore.Priority]
	// RR rotates constantly: far more context switches than EDF.
	if rr.CtxSwitches < 10*edf.CtxSwitches {
		t.Errorf("RR ctx switches (%d) should dwarf EDF's (%d)", rr.CtxSwitches, edf.CtxSwitches)
	}
	// Fixed priority favours the first app: its QoS or tail must be
	// worse than EDF's on a shared decoder.
	if prio.ViolationRate <= edf.ViolationRate && prio.P99FlowMS <= edf.P99FlowMS {
		t.Errorf("Priority should starve the late lane: prio(viol=%.3f p99=%.2f) vs edf(viol=%.3f p99=%.2f)",
			prio.ViolationRate, prio.P99FlowMS, edf.ViolationRate, edf.P99FlowMS)
	}
	var buf bytes.Buffer
	st.Write(&buf)
	if !strings.Contains(buf.String(), "EDF") {
		t.Error("Write missing policies")
	}
}

func TestBurstSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s, err := RunBurstSweep(250 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	first, last := s.Rows[0], s.Rows[len(s.Rows)-1]
	// Larger bursts: strictly fewer interrupts, less energy.
	if last.IntrPer100ms >= first.IntrPer100ms/2 {
		t.Errorf("burst 7 interrupts (%.1f) should be well below burst 1 (%.1f)",
			last.IntrPer100ms, first.IntrPer100ms)
	}
	if last.EnergyPerFr >= first.EnergyPerFr {
		t.Errorf("burst 7 energy (%v) should beat burst 1 (%v)", last.EnergyPerFr, first.EnergyPerFr)
	}
}

func TestLaneSweepShowsHOL(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s, err := RunLaneSweep(250 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// One lane = chained bursts with head-of-line blocking; three lanes
	// must cut violations sharply (W2 has three video flows).
	if s.Rows[0].ViolationRate <= s.Rows[2].ViolationRate {
		t.Errorf("1 lane (%.3f) should violate more than 3 lanes (%.3f)",
			s.Rows[0].ViolationRate, s.Rows[2].ViolationRate)
	}
	if s.Rows[0].CtxSwitches != 0 {
		t.Error("single-lane IPs cannot context switch")
	}
}

func TestPatienceSweepShowsThrashCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s, err := RunPatienceSweep(250 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	zero, two := s.Rows[0], s.Rows[2]
	if zero.CtxSwitches < 100*two.CtxSwitches {
		t.Errorf("zero patience should thrash: %d vs %d switches", zero.CtxSwitches, two.CtxSwitches)
	}
	if zero.AvgFlowMS <= two.AvgFlowMS {
		t.Errorf("thrashing should hurt flow time: %.2f vs %.2f", zero.AvgFlowMS, two.AvgFlowMS)
	}
}

func TestCtxCostSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s, err := RunCtxCostSweep(250 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows[0].CtxSwitches != 0 {
		t.Error("free switches are not counted (no penalty path)")
	}
	first, last := s.Rows[1], s.Rows[len(s.Rows)-1]
	if last.EnergyPerFr < first.EnergyPerFr {
		t.Errorf("higher switch cost should not reduce energy: %v vs %v",
			last.EnergyPerFr, first.EnergyPerFr)
	}
}

func TestSubframeSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s, err := RunSubframeSweep(250 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 4 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	for _, r := range s.Rows {
		if r.ViolationRate > 0.05 {
			t.Errorf("subframe %s: violations %.1f%%; granularity should not break QoS",
				r.Label, r.ViolationRate*100)
		}
	}
	var buf bytes.Buffer
	s.Write(&buf)
	if !strings.Contains(buf.String(), "1KB") {
		t.Error("Write missing rows")
	}
}
