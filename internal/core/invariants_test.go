package core

import (
	"testing"

	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
)

// Cross-design invariants: properties that must hold for every system
// design on every workload, regardless of calibration.

func TestFrameConservationAcrossModes(t *testing.T) {
	for _, mode := range platform.AllModes() {
		for _, ids := range [][]string{{"A5"}, {"A4", "A5"}, {"A1"}, {"A6"}} {
			rep := runApps(t, mode, 250*sim.Millisecond, ids...)
			for _, f := range rep.Flows {
				inFlight := f.Frames - f.Complete - f.Dropped
				if inFlight < 0 {
					t.Errorf("%v %s/%s: completed+dropped (%d+%d) exceeds offered (%d)",
						mode, f.App, f.Flow, f.Complete, f.Dropped, f.Frames)
				}
				// A pipeline holds at most the driver queue depth.
				if inFlight > maxBacklog {
					t.Errorf("%v %s/%s: %d frames in flight exceeds the queue depth",
						mode, f.App, f.Flow, inFlight)
				}
			}
		}
	}
}

func TestNoFlowExceedsItsTargetRate(t *testing.T) {
	for _, mode := range platform.AllModes() {
		rep := runApps(t, mode, 300*sim.Millisecond, "A5", "A6")
		for _, f := range rep.Flows {
			if f.AchievedFPS > f.FPS*1.1 {
				t.Errorf("%v %s/%s: %.1f FPS exceeds the %.0f target",
					mode, f.App, f.Flow, f.AchievedFPS, f.FPS)
			}
		}
	}
}

func TestEnergyGrowsWithDuration(t *testing.T) {
	short := runApps(t, platform.VIP, 150*sim.Millisecond, "A5")
	long := runApps(t, platform.VIP, 300*sim.Millisecond, "A5")
	if long.TotalEnergyJ <= short.TotalEnergyJ {
		t.Errorf("energy must grow with time: %.3f vs %.3f J",
			short.TotalEnergyJ, long.TotalEnergyJ)
	}
	// And roughly linearly for a steady workload (within 25%).
	ratio := long.TotalEnergyJ / short.TotalEnergyJ
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("steady workload energy should scale ~2x with 2x time, got %.2fx", ratio)
	}
}

func TestChainedNeverMovesMoreDRAMThanBaseline(t *testing.T) {
	for _, ids := range [][]string{{"A5"}, {"A4"}, {"A6"}, {"A1"}} {
		base := runApps(t, platform.Baseline, 200*sim.Millisecond, ids...)
		for _, mode := range []platform.Mode{platform.IPToIP, platform.IPToIPBurst, platform.VIP} {
			ch := runApps(t, mode, 200*sim.Millisecond, ids...)
			if ch.Mem.BytesMoved > base.Mem.BytesMoved {
				t.Errorf("%s under %v moved %d DRAM bytes > baseline %d",
					ids[0], mode, ch.Mem.BytesMoved, base.Mem.BytesMoved)
			}
		}
	}
}

func TestBurstsNeverIncreaseInterrupts(t *testing.T) {
	for _, ids := range [][]string{{"A5"}, {"A2"}, {"A6"}, {"A4", "A5"}} {
		base := runApps(t, platform.Baseline, 200*sim.Millisecond, ids...)
		for _, mode := range []platform.Mode{platform.FrameBurst, platform.IPToIPBurst, platform.VIP} {
			b := runApps(t, mode, 200*sim.Millisecond, ids...)
			if b.CPU.Interrupts >= base.CPU.Interrupts {
				t.Errorf("%v on %v: %d interrupts >= baseline %d",
					mode, ids, b.CPU.Interrupts, base.CPU.Interrupts)
			}
		}
	}
}

func TestPercentilesOrdered(t *testing.T) {
	for _, mode := range platform.AllModes() {
		rep := runApps(t, mode, 300*sim.Millisecond, "A5", "A5")
		for _, f := range rep.Flows {
			if f.Complete == 0 {
				continue
			}
			avg := f.AvgFlowTime.Milliseconds()
			if f.P95FlowMS < avg*0.5 || f.P99FlowMS < f.P95FlowMS {
				t.Errorf("%v %s/%s: percentiles inconsistent: avg=%.2f p95=%.2f p99=%.2f",
					mode, f.App, f.Flow, avg, f.P95FlowMS, f.P99FlowMS)
			}
			if f.P99FlowMS > f.MaxFlowTime.Milliseconds()+1e-9 {
				t.Errorf("%v %s/%s: p99 %.2f exceeds max %.2f",
					mode, f.App, f.Flow, f.P99FlowMS, f.MaxFlowTime.Milliseconds())
			}
		}
	}
}

func TestAllIPsFinishIdle(t *testing.T) {
	// After the run drains, no IP should still hold the datapath busy
	// beyond the horizon (sanity on accounting).
	rep := runApps(t, platform.VIP, 200*sim.Millisecond, "A3")
	for _, ip := range rep.IPs {
		total := ip.Stats.ActiveTime() + ip.Stats.Idle
		if total > 201*sim.Millisecond {
			t.Errorf("%v accounted %v over a 200ms run", ip.Kind, total)
		}
	}
}

func TestSeedChangesGameOutcomeOnly(t *testing.T) {
	// Different seeds change touch behaviour (game apps) but not the
	// deterministic playback pipeline's frame count.
	a := func(seed uint64, id string) *Report {
		p := platform.New(platform.DefaultConfig(platform.VIP))
		opts := DefaultOptions(platform.VIP)
		opts.Duration = 200 * sim.Millisecond
		opts.Seed = seed
		opts.ComputeNoise = 0 // isolate the touch models
		spec, _ := appByID(t, id)
		r, err := NewRunner(p, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	v1, v2 := a(1, "A5"), a(2, "A5")
	if v1.DisplayedFrames != v2.DisplayedFrames {
		t.Error("playback without noise should not depend on the seed")
	}
	g1, g2 := a(1, "A2"), a(2, "A2")
	if g1.CPU.Tasks == g2.CPU.Tasks {
		t.Log("note: different seeds produced identical game task counts (possible but unlikely)")
	}
}
