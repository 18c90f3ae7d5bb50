package core

import (
	"testing"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/workload"
)

func testVideoFlow() *app.Flow {
	a, _ := workload.App("A5")
	return &a.Flows[0]
}

func TestHeaderPacketSize(t *testing.T) {
	// §5.4: ~1KB of context per IP, ~4KB for the longest (4-IP) flow.
	if got := headerBytes(3); got < 3<<10 || got > 3<<10+64 {
		t.Errorf("3-IP header = %d bytes, want ~3KB", got)
	}
	if got := headerBytes(4); got < 4<<10 || got > 4<<10+64 {
		t.Errorf("4-IP header = %d bytes, paper expects ~4KB", got)
	}
}

func TestChainOpenAssignsDistinctLanesUnderVIP(t *testing.T) {
	r := &Runner{p: platform.New(platform.DefaultConfig(platform.VIP))}
	f := testVideoFlow()
	l1 := r.openLanes(f)
	l2 := r.openLanes(f)
	if len(l1) != len(f.Stages) {
		t.Fatalf("lanes = %v", l1)
	}
	for i := range l1 {
		if l1[i] == l2[i] {
			t.Errorf("stage %d: both flows share lane %d despite free lanes", i, l1[i])
		}
	}
}

func TestChainOpenSharesLaneZeroOnBaseline(t *testing.T) {
	r := &Runner{p: platform.New(platform.DefaultConfig(platform.Baseline))}
	f := testVideoFlow()
	l1 := r.openLanes(f)
	l2 := r.openLanes(f)
	for i := range l1 {
		if l1[i] != 0 || l2[i] != 0 {
			t.Error("single-lane hardware always uses lane 0")
		}
	}
}

func TestChainLaneWrapsWhenOverSubscribed(t *testing.T) {
	p := platform.New(platform.DefaultConfig(platform.VIP))
	r := &Runner{p: p}
	f := testVideoFlow()
	lanes := p.IP(ipcore.VD).Lanes()
	seen := map[int]int{}
	for i := 0; i < lanes+2; i++ {
		seen[r.openLanes(f)[0]]++
	}
	// All lanes used before any is reused.
	for lane, n := range seen {
		if n == 0 {
			t.Errorf("lane %d never used", lane)
		}
	}
	if len(seen) != lanes {
		t.Errorf("used %d distinct lanes, want %d", len(seen), lanes)
	}
}

func TestEffectiveBurst(t *testing.T) {
	opts := DefaultOptions(platform.VIP)
	opts.BurstSize = 5
	play := app.Spec{Class: app.ClassPlayback, GOP: 16}
	if got := opts.effectiveBurst(&play, false); got != 5 {
		t.Errorf("playback burst = %d, want 5", got)
	}
	shortGOP := app.Spec{Class: app.ClassPlayback, GOP: 3}
	if got := opts.effectiveBurst(&shortGOP, false); got != 3 {
		t.Errorf("GOP-bounded burst = %d, want 3", got)
	}
	game := app.Spec{Class: app.ClassGame}
	if got := opts.effectiveBurst(&game, true); got != 1 {
		t.Errorf("flicking game burst = %d, want 1", got)
	}
	opts.BurstSize = 30
	if got := opts.effectiveBurst(&game, false); got != 10 {
		t.Errorf("game burst cap = %d, want 10 (§4.3)", got)
	}
}

func TestDriverCostsDefaultsSane(t *testing.T) {
	for _, d := range []sim.Time{setupPerIP, isr, chainSetupBase, chainSetupPerHop, burstSetupBase,
		burstSetupPerFrame, burstResiduePerFrame, chainOpen, touchInput, handoff} {
		if d <= 0 {
			t.Errorf("driver cost %v must be positive", d)
		}
	}
	if isr >= handoff {
		t.Error("the software hand-off dominates the raw ISR")
	}
}

func TestOptionsValidate(t *testing.T) {
	for i, mut := range []func(*Options){
		func(o *Options) { o.Duration = 0 },
		func(o *Options) { o.BurstSize = 0 },
	} {
		o := DefaultOptions(platform.VIP)
		mut(&o)
		if err := o.validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
