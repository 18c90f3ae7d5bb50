package core

import (
	"testing"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/workload"
)

var _ = appByID // used by invariants tests

// runApps executes the given apps for dur under mode and returns the report.
func runApps(t testing.TB, mode platform.Mode, dur sim.Time, appIDs ...string) *Report {
	t.Helper()
	var specs []app.Spec
	for _, id := range appIDs {
		a, err := workload.App(id)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, a)
	}
	p := platform.New(platform.DefaultConfig(mode))
	opts := DefaultOptions(mode)
	opts.Duration = dur
	r, err := NewRunner(p, specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBaselineSingleVideoPlayerMeetsDeadlines(t *testing.T) {
	rep := runApps(t, platform.Baseline, 500*sim.Millisecond, "A5")
	if rep.DisplayedFrames < 25 {
		t.Fatalf("displayed %d frames in 0.5s, want ~30", rep.DisplayedFrames)
	}
	if rep.ViolationRate > 0.1 {
		t.Errorf("single app violation rate %.2f; one video player must fit", rep.ViolationRate)
	}
	if rep.AvgFlowTime >= 17*sim.Millisecond {
		t.Errorf("avg flow time %v exceeds the 16.6ms budget", rep.AvgFlowTime)
	}
	t.Logf("\n%s", rep)
}

func TestAllModesRunAllApps(t *testing.T) {
	for _, mode := range platform.AllModes() {
		for _, id := range workload.AppIDs() {
			rep := runApps(t, mode, 200*sim.Millisecond, id)
			if rep.DisplayedFrames == 0 {
				t.Errorf("%v/%s: no frames displayed", mode, id)
			}
			if rep.TotalEnergyJ <= 0 {
				t.Errorf("%v/%s: no energy accounted", mode, id)
			}
		}
	}
}

func TestChainingEliminatesMemoryTraffic(t *testing.T) {
	base := runApps(t, platform.Baseline, 300*sim.Millisecond, "A5")
	chained := runApps(t, platform.IPToIP, 300*sim.Millisecond, "A5")
	if chained.Mem.BytesMoved >= base.Mem.BytesMoved/4 {
		t.Errorf("chaining should slash DRAM traffic: base=%d chained=%d",
			base.Mem.BytesMoved, chained.Mem.BytesMoved)
	}
}

func TestBurstsCutInterruptsAndInstructions(t *testing.T) {
	base := runApps(t, platform.Baseline, 300*sim.Millisecond, "A5")
	burst := runApps(t, platform.FrameBurst, 300*sim.Millisecond, "A5")
	if burst.CPU.Interrupts*2 >= base.CPU.Interrupts {
		t.Errorf("bursts should cut interrupts >2x: base=%d burst=%d",
			base.CPU.Interrupts, burst.CPU.Interrupts)
	}
	if float64(burst.CPU.Instructions) > 0.8*float64(base.CPU.Instructions) {
		t.Errorf("bursts should cut instructions: base=%d burst=%d",
			base.CPU.Instructions, burst.CPU.Instructions)
	}
}

func TestVIPEnergyBeatsIPToIPOnSharedWorkload(t *testing.T) {
	ip2ip := runApps(t, platform.IPToIP, 400*sim.Millisecond, "A5", "A5")
	vip := runApps(t, platform.VIP, 400*sim.Millisecond, "A5", "A5")
	if vip.EnergyPerFrameJ >= ip2ip.EnergyPerFrameJ {
		t.Errorf("VIP energy/frame %.4f should beat IP-to-IP %.4f",
			vip.EnergyPerFrameJ*1e3, ip2ip.EnergyPerFrameJ*1e3)
	}
	t.Logf("IP2IP:\n%s\nVIP:\n%s", ip2ip, vip)
}

func TestVIPQoSBeatsBurstWithoutVirtualization(t *testing.T) {
	// Two video players share VD and DC: whole-burst occupancy without
	// virtualization causes HOL blocking and QoS violations.
	noVirt := runApps(t, platform.IPToIPBurst, 400*sim.Millisecond, "A5", "A5")
	vip := runApps(t, platform.VIP, 400*sim.Millisecond, "A5", "A5")
	if vip.ViolationRate > noVirt.ViolationRate {
		t.Errorf("VIP violations %.3f should not exceed unvirtualized bursts %.3f",
			vip.ViolationRate, noVirt.ViolationRate)
	}
	t.Logf("IP2IP+FB: viol=%.3f flow=%v | VIP: viol=%.3f flow=%v",
		noVirt.ViolationRate, noVirt.AvgFlowTime, vip.ViolationRate, vip.AvgFlowTime)
}

func TestRunnerRejectsBadInputs(t *testing.T) {
	p := platform.New(platform.DefaultConfig(platform.Baseline))
	a, _ := workload.App("A5")
	if _, err := NewRunner(p, nil, DefaultOptions(platform.Baseline)); err == nil {
		t.Error("no apps accepted")
	}
	if _, err := NewRunner(p, []app.Spec{a}, DefaultOptions(platform.VIP)); err == nil {
		t.Error("mode mismatch accepted")
	}
	bad := DefaultOptions(platform.Baseline)
	bad.Duration = 0
	if _, err := NewRunner(p, []app.Spec{a}, bad); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestRunnerRunsOnce(t *testing.T) {
	p := platform.New(platform.DefaultConfig(platform.Baseline))
	a, _ := workload.App("A3")
	r, err := NewRunner(p, []app.Spec{a}, func() Options {
		o := DefaultOptions(platform.Baseline)
		o.Duration = 50 * sim.Millisecond
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a := runApps(t, platform.VIP, 200*sim.Millisecond, "A5", "A1")
	b := runApps(t, platform.VIP, 200*sim.Millisecond, "A5", "A1")
	if a.TotalEnergyJ != b.TotalEnergyJ || a.DisplayedFrames != b.DisplayedFrames ||
		a.CPU.Instructions != b.CPU.Instructions {
		t.Error("same seed and config must give identical results")
	}
}

// appByID resolves one app spec for tests that construct runners manually.
func appByID(t testing.TB, id string) ([]app.Spec, error) {
	t.Helper()
	a, err := workload.App(id)
	if err != nil {
		t.Fatal(err)
	}
	return []app.Spec{a}, nil
}
