package platform

import (
	"testing"

	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/sim"
)

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		Baseline: "Baseline", FrameBurst: "FrameBurst", IPToIP: "IP-to-IP",
		IPToIPBurst: "IP-to-IP+FB", VIP: "VIP",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Mode(99).String() != "Mode?" {
		t.Error("out-of-range mode should render Mode?")
	}
}

func TestModePredicates(t *testing.T) {
	if Baseline.Chained() || Baseline.Bursted() || Baseline.Virtualized() {
		t.Error("baseline has no features")
	}
	if !FrameBurst.Bursted() || FrameBurst.Chained() {
		t.Error("FrameBurst bursts only")
	}
	if !IPToIP.Chained() || IPToIP.Bursted() {
		t.Error("IPToIP chains only")
	}
	if !IPToIPBurst.Chained() || !IPToIPBurst.Bursted() || IPToIPBurst.Virtualized() {
		t.Error("IPToIPBurst chains+bursts")
	}
	if !VIP.Chained() || !VIP.Bursted() || !VIP.Virtualized() {
		t.Error("VIP has all three")
	}
}

func TestAllModesOrder(t *testing.T) {
	ms := AllModes()
	if len(ms) != 5 || ms[0] != Baseline || ms[4] != VIP {
		t.Errorf("AllModes = %v", ms)
	}
}

func TestDefaultConfigBuilds(t *testing.T) {
	for _, m := range AllModes() {
		p := New(DefaultConfig(m))
		if p.Mode() != m {
			t.Errorf("mode = %v, want %v", p.Mode(), m)
		}
		if len(p.Kinds()) != ipcore.NumKinds {
			t.Errorf("%v: %d IPs, want %d", m, len(p.Kinds()), ipcore.NumKinds)
		}
	}
}

func TestVIPPlatformHasLanesAndEDF(t *testing.T) {
	p := New(DefaultConfig(VIP))
	vd := p.IP(ipcore.VD)
	if vd.Lanes() != 4 {
		t.Errorf("VIP VD lanes = %d, want 4 (paper max)", vd.Lanes())
	}
	if vd.Config().Policy != ipcore.EDF {
		t.Error("VIP IPs should schedule EDF")
	}
	base := New(DefaultConfig(Baseline))
	if base.IP(ipcore.VD).Lanes() != 1 {
		t.Error("baseline IPs are single-lane")
	}
	if base.IP(ipcore.VD).Config().Policy != ipcore.FCFS {
		t.Error("baseline IPs are FCFS")
	}
}

func TestPaperDesignPoint(t *testing.T) {
	cfg := DefaultConfig(VIP)
	if cfg.LaneBufBytes != 2<<10 {
		t.Errorf("lane buffer = %d, want 2KB (32 cache lines, §5.5)", cfg.LaneBufBytes)
	}
	if cfg.SubframeBytes != 1<<10 {
		t.Errorf("sub-frame = %d, want 1KB (§5.5)", cfg.SubframeBytes)
	}
}

func TestConfigValidation(t *testing.T) {
	for i, mut := range []func(*Config){
		func(c *Config) { c.LaneBufBytes = 0 },
		func(c *Config) { c.SubframeBytes = 0 },
		func(c *Config) { c.VIPLanes = 0 },
		func(c *Config) { c.VIPLanes = 5 },
	} {
		cfg := DefaultConfig(VIP)
		mut(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cfg := DefaultConfig(VIP)
	cfg.VIPLanes = 9
	New(cfg)
}

func TestAllocFrame(t *testing.T) {
	p := New(DefaultConfig(Baseline))
	a := p.AllocFrame(1000)
	b := p.AllocFrame(1000)
	if b <= a {
		t.Error("allocations must advance")
	}
	if (b-a)%4096 != 0 {
		t.Error("allocations should be 4KB aligned")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative alloc should panic")
		}
	}()
	p.AllocFrame(-1)
}

// TestIPPanicsOnUnknownKind: every kind has a core, and a kind outside
// the enumeration panics rather than yielding a nil core.
func TestIPPanicsOnUnknownKind(t *testing.T) {
	p := New(DefaultConfig(Baseline))
	for _, k := range p.Kinds() {
		if c := p.IP(k); c == nil || c.Config().Kind != k {
			t.Errorf("IP(%v) is not the %v core", k, k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for an unknown kind")
		}
	}()
	p.IP(ipcore.Kind(ipcore.NumKinds))
}

func TestIPParamsCoverAllKinds(t *testing.T) {
	for k, p := range DefaultIPParams() {
		if p.ThroughputBPS <= 0 || p.ActiveW <= 0 {
			t.Errorf("%v params not positive: %+v", ipcore.Kind(k), p)
		}
	}
}

func TestSixtyFPSBudgets(t *testing.T) {
	// Every 60 FPS frame type must fit its 16.6ms budget on its
	// primary IP with headroom (Table 3's required FPS).
	prm := DefaultIPParams()
	budget := sim.FPS(60)
	cases := []struct {
		k     ipcore.Kind
		bytes int
	}{
		{ipcore.VD, 3840 * 2160 * 3 / 2},
		{ipcore.GPU, 1920 * 1200 * 4},
		{ipcore.DC, 1920 * 1200 * 4},
		{ipcore.VE, 2560 * 1620 * 3 / 2},
		{ipcore.CAM, 2560 * 1620 * 3 / 2},
	}
	for _, c := range cases {
		d := sim.BytesOver(int64(c.bytes), prm[c.k].ThroughputBPS) + prm[c.k].PerFrame
		if d >= budget {
			t.Errorf("%v: %v per frame exceeds the 60 FPS budget", c.k, d)
		}
	}
}

func TestFinalizeAccountingIdempotent(t *testing.T) {
	p := New(DefaultConfig(Baseline))
	p.Eng.Run(10 * sim.Millisecond)
	p.FinalizeAccounting()
	e1 := p.Acct.Total()
	p.FinalizeAccounting()
	if p.Acct.Total() != e1 {
		t.Error("FinalizeAccounting must be idempotent at one instant")
	}
}
