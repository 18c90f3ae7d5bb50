package workload

import (
	"fmt"
	"testing"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/ipcore"
)

func TestAllAppsValidate(t *testing.T) {
	ids := AppIDs()
	if len(ids) != 7 {
		t.Fatalf("got %d apps, want 7 (Table 1)", len(ids))
	}
	for i, id := range ids {
		if want := fmt.Sprintf("A%d", i+1); id != want {
			t.Errorf("app %d = %s, want %s (Table 1 order)", i, id, want)
		}
		a, err := App(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s invalid: %v", id, err)
		}
		if a.ID != id {
			t.Errorf("app %s has mismatched ID %s", id, a.ID)
		}
	}
}

func TestTable1FlowShapes(t *testing.T) {
	cases := map[string][]string{
		// Notes vs. the paper's Table 1: (a) our FlowString prefixes
		// "CPU - " whenever the CPU feeds the first IP its data (the
		// table itself is inconsistent about showing the CPU); (b) video
		// playback includes the GPU composition pass that Figure 1 shows
		// and that the paper's per-app bandwidth numbers imply, which
		// Table 1 abbreviates away.
		"A1": {"CPU - GPU - DC", "CPU - AD - SND"},
		"A4": {"CPU - VD - GPU - DC", "CAM - VE - NW", "CPU - AD - SND", "MIC - AE - NW"},
		"A5": {"CPU - VD - GPU - DC", "CPU - AD - SND"},
		"A6": {"CAM - IMG - DC", "CAM - VE - MMC", "MIC - AE - MMC"},
		"A7": {"CPU - VD - GPU - DC", "CPU - AD - SND"},
	}
	for id, wantFlows := range cases {
		a, err := App(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Flows) != len(wantFlows) {
			t.Errorf("%s: %d flows, want %d", id, len(a.Flows), len(wantFlows))
			continue
		}
		for i, want := range wantFlows {
			if got := a.Flows[i].FlowString(); got != want {
				t.Errorf("%s flow %d = %q, want %q (Table 1)", id, i, got, want)
			}
		}
	}
}

func TestVideoPlayerUses4K(t *testing.T) {
	a, err := App("A5")
	if err != nil {
		t.Fatal(err)
	}
	if a.Flows[0].Stages[0].OutBytes != app.Frame4K {
		t.Error("A5 should decode 4K frames per Table 3")
	}
	if a.Flows[0].FPS != 60 {
		t.Error("A5 should require 60 FPS per Table 3")
	}
}

func TestGameAppsAreGameClass(t *testing.T) {
	for _, id := range []string{"A1", "A2"} {
		a, _ := App(id)
		if a.Class != app.ClassGame {
			t.Errorf("%s class = %v, want game", id, a.Class)
		}
	}
	a5, _ := App("A5")
	if a5.Class != app.ClassPlayback {
		t.Error("A5 should be playback class")
	}
}

func TestPlaybackAppsHaveGOP(t *testing.T) {
	for _, id := range []string{"A4", "A5", "A6", "A7"} {
		a, _ := App(id)
		if a.GOP <= 0 || a.GOP > 20 {
			t.Errorf("%s GOP = %d; paper says GOP < 20", id, a.GOP)
		}
	}
}

func TestUnknownApp(t *testing.T) {
	if _, err := App("A99"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestWorkloadsTable2(t *testing.T) {
	ws := Workloads()
	if len(ws) != 8 {
		t.Fatalf("got %d workloads, want 8 (Table 2)", len(ws))
	}
	for i, w := range ws {
		wantID := []string{"W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8"}[i]
		if w.ID != wantID {
			t.Errorf("workload %d = %s, want %s", i, w.ID, wantID)
		}
		if len(w.AppIDs) < 2 {
			t.Errorf("%s has %d apps, want >= 2", w.ID, len(w.AppIDs))
		}
		ids, err := Expand([]string{w.ID})
		if err != nil {
			t.Errorf("%s expand: %v", w.ID, err)
		}
		if len(ids) != len(w.AppIDs) {
			t.Errorf("%s expanded to %d apps", w.ID, len(ids))
		}
	}
}

func TestWorkloadPairings(t *testing.T) {
	w4, err := ByID("W4")
	if err != nil {
		t.Fatal(err)
	}
	// W4 = Skype + Video-Play per Table 2.
	if w4.AppIDs[0] != "A4" || w4.AppIDs[1] != "A5" {
		t.Errorf("W4 = %v, want [A4 A5]", w4.AppIDs)
	}
	w1, _ := ByID("W1")
	if w1.AppIDs[0] != "A5" || w1.AppIDs[1] != "A5" {
		t.Errorf("W1 = %v, want two video players", w1.AppIDs)
	}
}

// TestExpand: workload ids become their app mixes in place, app ids pass
// through, and the first unknown id of either kind is an error.
func TestExpand(t *testing.T) {
	got, err := Expand([]string{"A1", "W2", "A3", "W1"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"A1", "A5", "A7", "A7", "A3", "A5", "A5"}
	if len(got) != len(want) {
		t.Fatalf("Expand = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Expand = %v, want %v", got, want)
		}
	}
	for _, c := range []struct{ id, msg string }{
		{"A99", `workload: unknown application "A99"`},
		{"W9", `workload: unknown workload "W9"`},
		{"", `workload: unknown application ""`},
	} {
		if _, err := Expand([]string{"A5", c.id}); err == nil || err.Error() != c.msg {
			t.Errorf("Expand(%q) error = %v, want %s", c.id, err, c.msg)
		}
	}
}

// TestExpandAllocatesOnlyItsResult: expanding ids reads Table 2 in
// place (vipserve expands every request's ids to bound its size), and
// ByID hands out a copy its caller may modify.
func TestExpandAllocatesOnlyItsResult(t *testing.T) {
	// The result, and its one growth past len(ids); no table.
	if n := testing.AllocsPerRun(100, func() { _, _ = Expand([]string{"W2", "A1"}) }); n > 2 {
		t.Errorf("Expand = %v allocs, want at most 2", n)
	}
	w, _ := ByID("W2")
	w.AppIDs[0] = "A9"
	if got, _ := Expand([]string{"W2"}); got[0] != "A5" {
		t.Errorf("modifying ByID's AppIDs changed Table 2: W2 expands to %v", got)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("W99"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSharedIPsInW1(t *testing.T) {
	// Both A5 instances use VD and DC: contention on shared IPs is the
	// whole point of the paper's multi-app scenario.
	ids, err := Expand([]string{"W1"})
	if err != nil {
		t.Fatal(err)
	}
	var specs []app.Spec
	for _, id := range ids {
		a, err := App(id)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, a)
	}
	uses := func(s app.Spec, k ipcore.Kind) bool {
		for _, f := range s.Flows {
			for _, st := range f.Stages {
				if st.Kind == k {
					return true
				}
			}
		}
		return false
	}
	for _, s := range specs {
		if !uses(s, ipcore.VD) || !uses(s, ipcore.DC) {
			t.Error("both W1 apps should use VD and DC")
		}
	}
}

func TestAppsReturnsFreshCopies(t *testing.T) {
	for _, id := range AppIDs() {
		a1, _ := App(id)
		a1.Flows[0].FPS = 1
		a1.Flows[0].Stages[0].OutBytes = -1
		a2, _ := App(id)
		if a2.Flows[0].FPS == 1 || a2.Flows[0].Stages[0].OutBytes == -1 {
			t.Errorf("App(%q) must return independent copies", id)
		}
	}
}
