package core

import (
	"strings"
	"testing"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/energy"
	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/workload"
)

// interruptsPerFrame computes ISRs per displayed video frame.
func interruptsPerFrame(rep *Report) float64 {
	if rep.DisplayedFrames == 0 {
		return 0
	}
	return float64(rep.CPU.Interrupts) / float64(rep.DisplayedFrames)
}

func TestBaselineInterruptsPerStage(t *testing.T) {
	// Baseline: one ISR per IP stage per frame. A5 = video (3 stages) +
	// audio (2 stages) at the same rate -> ~5 ISRs per displayed frame.
	rep := runApps(t, platform.Baseline, 300*sim.Millisecond, "A5")
	got := interruptsPerFrame(rep)
	if got < 4.5 || got > 5.6 {
		t.Errorf("baseline ISRs/frame = %.2f, want ~5 (3 video + 2 audio stages)", got)
	}
}

func TestIPToIPOneInterruptPerFrame(t *testing.T) {
	// Chained: a single completion interrupt per frame per flow -> ~2.
	rep := runApps(t, platform.IPToIP, 300*sim.Millisecond, "A5")
	got := interruptsPerFrame(rep)
	if got < 1.5 || got > 2.5 {
		t.Errorf("IP-to-IP ISRs/frame = %.2f, want ~2 (one per flow)", got)
	}
}

func TestBurstOneInterruptPerBurst(t *testing.T) {
	// VIP with burst 5: ~one ISR per 5 frames per flow -> ~0.4/frame.
	rep := runApps(t, platform.VIP, 300*sim.Millisecond, "A5")
	got := interruptsPerFrame(rep)
	if got > 0.8 {
		t.Errorf("VIP ISRs/frame = %.2f, want ~0.4 (one per 5-frame burst per flow)", got)
	}
}

func TestChainedSkipsDRAMForIntermediates(t *testing.T) {
	// A chained video player should touch DRAM only for the bitstream:
	// ~1MB per frame instead of ~44MB.
	rep := runApps(t, platform.IPToIP, 300*sim.Millisecond, "A5")
	perFrame := float64(rep.Mem.BytesMoved) / float64(rep.DisplayedFrames)
	if perFrame > 2<<20 {
		t.Errorf("chained DRAM traffic %.1f MB/frame, want ~1 MB (bitstream only)", perFrame/1e6)
	}
}

func TestBaselineMovesAllIntermediates(t *testing.T) {
	// Baseline 4K playback: bitstream + VD out + GPU in/out + DC in
	// (~44 MB per frame).
	rep := runApps(t, platform.Baseline, 300*sim.Millisecond, "A5")
	perFrame := float64(rep.Mem.BytesMoved) / float64(rep.DisplayedFrames)
	if perFrame < 35e6 || perFrame > 55e6 {
		t.Errorf("baseline DRAM traffic %.1f MB/frame, want ~44 MB", perFrame/1e6)
	}
}

func TestHOLBlockingWithoutVirtualization(t *testing.T) {
	// Figure 7: with chained bursts but single-lane IPs, one app's burst
	// blocks the other at the shared decoder; VIP's lanes remove it.
	noVirt := runApps(t, platform.IPToIPBurst, 400*sim.Millisecond, "A5", "A5")
	virt := runApps(t, platform.VIP, 400*sim.Millisecond, "A5", "A5")
	if noVirt.ViolationRate <= virt.ViolationRate {
		t.Errorf("expected HOL violations without virtualization: novirt=%.3f vip=%.3f",
			noVirt.ViolationRate, virt.ViolationRate)
	}
	// Both displayed roughly the same number of frames (throughput is
	// not the issue — latency distribution is).
	if virt.DisplayedFrames < noVirt.DisplayedFrames {
		t.Errorf("VIP should not lose throughput: %d vs %d",
			virt.DisplayedFrames, noVirt.DisplayedFrames)
	}
}

func TestVIPContextSwitchesOnSharedIPs(t *testing.T) {
	rep := runApps(t, platform.VIP, 300*sim.Millisecond, "A5", "A5")
	vd := rep.IPStat(ipcore.VD)
	if vd.CtxSwitch == 0 {
		t.Error("VIP decoder serving two flows should context switch")
	}
	dc := rep.IPStat(ipcore.DC)
	if dc.CtxSwitch == 0 {
		t.Error("VIP display serving two flows should context switch")
	}
}

func TestFrameBurstDegradesMultiAppQoS(t *testing.T) {
	// §4.3: bursts without virtualization cause serious QoS degradation
	// for all multi-app workloads.
	base := runApps(t, platform.Baseline, 400*sim.Millisecond, "A5", "A5")
	fb := runApps(t, platform.FrameBurst, 400*sim.Millisecond, "A5", "A5")
	if fb.ViolationRate <= base.ViolationRate {
		t.Errorf("frame bursts should hurt multi-app QoS: base=%.3f fb=%.3f",
			base.ViolationRate, fb.ViolationRate)
	}
}

func TestGameTapRollbacks(t *testing.T) {
	// A tap-driven game under bursts eventually rolls back speculative
	// frames (Figure 11). Run long enough for several taps.
	p := platform.New(platform.DefaultConfig(platform.VIP))
	a, _ := workload.App("A1")
	opts := DefaultOptions(platform.VIP)
	opts.Duration = 2 * sim.Second
	opts.Seed = 3
	r, err := NewRunner(p, []app.Spec{a}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rollbacks == 0 {
		t.Error("expected at least one rollback over 2s of tap-driven gameplay")
	}
}

func TestBaselineNeverRollsBack(t *testing.T) {
	rep := runApps(t, platform.Baseline, sim.Second, "A1")
	if rep.Rollbacks != 0 {
		t.Errorf("baseline has no speculation to roll back, got %d", rep.Rollbacks)
	}
}

func TestCameraFlowsArePacedByRealTime(t *testing.T) {
	// A6 records camera frames: even under bursts the camera cannot
	// capture the future, so achieved FPS never exceeds the target.
	rep := runApps(t, platform.VIP, 400*sim.Millisecond, "A6")
	for _, f := range rep.Flows {
		if strings.HasPrefix(f.Flow, "cam") && f.AchievedFPS > 62 {
			t.Errorf("%s achieved %.1f FPS; the sensor can't run ahead", f.Flow, f.AchievedFPS)
		}
	}
}

func TestDropsAtBacklogLimit(t *testing.T) {
	// Four 4K players oversubscribe the baseline platform: the driver
	// queue limit must produce source drops, not unbounded queues.
	rep := runApps(t, platform.Baseline, 600*sim.Millisecond, "A5", "A5", "A5", "A5")
	drops := 0
	for _, f := range rep.Flows {
		drops += f.Dropped
	}
	if drops == 0 {
		t.Error("4-app overload should drop frames at the depth-7 queue")
	}
	if rep.ViolationRate == 0 {
		t.Error("4-app overload should violate deadlines")
	}
}

func TestAudioAlwaysMeetsDeadlines(t *testing.T) {
	// Audio frames are tiny; they must never miss under any design.
	for _, mode := range platform.AllModes() {
		rep := runApps(t, mode, 300*sim.Millisecond, "A3")
		for _, f := range rep.Flows {
			if strings.Contains(f.Flow, "ad") && f.Violations > 0 {
				t.Errorf("%v: audio flow violated %d times", mode, f.Violations)
			}
		}
	}
}

func TestReportString(t *testing.T) {
	rep := runApps(t, platform.VIP, 150*sim.Millisecond, "A3")
	s := rep.String()
	for _, want := range []string{"mode=VIP", "cpu:", "mem:", "display:", "A3"} {
		if !strings.Contains(s, want) {
			t.Errorf("Report.String missing %q", want)
		}
	}
}

func TestIPStatUnknownKind(t *testing.T) {
	rep := runApps(t, platform.Baseline, 100*sim.Millisecond, "A3")
	if st := rep.IPStat(ipcore.Kind(99)); st.Frames != 0 {
		t.Error("unknown kind should report zero stats")
	}
}

func TestEnergyBreakdownSumsToTotal(t *testing.T) {
	rep := runApps(t, platform.Baseline, 150*sim.Millisecond, "A5")
	sum := rep.CPUEnergyJ + rep.DRAMEnergyJ + rep.IPEnergyJ + rep.Energy.Get(energy.SystemAgent)
	diff := rep.TotalEnergyJ - sum
	if diff < -1e-9 || diff > 1e-9 {
		t.Errorf("breakdown (%.6f) != total (%.6f)", sum, rep.TotalEnergyJ)
	}
}

func TestIdleAppBarelyConsumes(t *testing.T) {
	// A3 (audio + 10 FPS UI) is nearly idle: its platform energy should
	// be far below a 4K video player's.
	audio := runApps(t, platform.Baseline, 300*sim.Millisecond, "A3")
	video := runApps(t, platform.Baseline, 300*sim.Millisecond, "A5")
	if audio.TotalEnergyJ > video.TotalEnergyJ/2 {
		t.Errorf("audio app energy %.1f mJ should be well below video %.1f mJ",
			audio.TotalEnergyJ*1e3, video.TotalEnergyJ*1e3)
	}
}
