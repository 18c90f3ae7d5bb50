// Package platform assembles the simulated handheld SoC of Table 3: the
// 4-core CPU complex, the LPDDR3 memory system, the System Agent, and one
// instance of every IP core, configured for one of the five system designs
// the paper compares (Baseline, Frame Burst, IP-to-IP, IP-to-IP with
// Frame Burst, and VIP).
package platform

import (
	"fmt"

	"github.com/vipsim/vip/internal/cpu"
	"github.com/vipsim/vip/internal/dram"
	"github.com/vipsim/vip/internal/energy"
	"github.com/vipsim/vip/internal/fault"
	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/noc"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/telemetry"
)

// Mode selects which of the paper's five system designs the platform
// implements (Figure 4 and §6.2).
type Mode int

const (
	// Baseline is today's system: per-frame CPU orchestration, every
	// inter-IP hop staged through DRAM.
	Baseline Mode = iota
	// FrameBurst adds burst-mode CPU scheduling on top of Baseline
	// (still through memory).
	FrameBurst
	// IPToIP chains IPs through flow buffers (no memory staging) but
	// the CPU still kicks every frame.
	IPToIP
	// IPToIPBurst combines chaining with frame bursts; no hardware
	// virtualization, so a burst occupies the chain end to end.
	IPToIPBurst
	// VIP is the paper's full proposal: chaining + bursts + virtualized
	// multi-lane IPs with hardware EDF scheduling.
	VIP
)

var modeNames = [...]string{"Baseline", "FrameBurst", "IP-to-IP", "IP-to-IP+FB", "VIP"}

// String names the mode as the paper's figures do.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return "Mode?"
	}
	return modeNames[m]
}

// AllModes lists the five designs in the order the paper plots them.
func AllModes() []Mode { return []Mode{Baseline, FrameBurst, IPToIP, IPToIPBurst, VIP} }

// Chained reports whether the mode forwards data IP-to-IP.
func (m Mode) Chained() bool { return m == IPToIP || m == IPToIPBurst || m == VIP }

// Bursted reports whether the mode batches frames into bursts.
func (m Mode) Bursted() bool { return m == FrameBurst || m == IPToIPBurst || m == VIP }

// Virtualized reports whether IPs expose multiple lanes with hardware
// scheduling.
func (m Mode) Virtualized() bool { return m == VIP }

// IPParams is the per-kind performance/power description.
type IPParams struct {
	ThroughputBPS float64
	PerFrame      sim.Time
	ActiveW       float64
}

// DefaultIPParams returns the calibrated parameters of every IP kind,
// indexed by kind. Throughputs are sized so that a single 60 FPS flow
// fits its 16.6 ms budget with headroom (Table 3 geometry), leaving
// memory contention — not raw IP speed — as the multi-app bottleneck,
// which is what the paper's Figure 3 measures on real hardware.
func DefaultIPParams() [ipcore.NumKinds]IPParams {
	return [ipcore.NumKinds]IPParams{
		ipcore.VD:  {ThroughputBPS: 6.2e9, PerFrame: 60 * sim.Microsecond, ActiveW: 0.25},
		ipcore.VE:  {ThroughputBPS: 4.0e9, PerFrame: 70 * sim.Microsecond, ActiveW: 0.30},
		ipcore.GPU: {ThroughputBPS: 3.5e9, PerFrame: 80 * sim.Microsecond, ActiveW: 0.60},
		ipcore.DC:  {ThroughputBPS: 3.0e9, PerFrame: 20 * sim.Microsecond, ActiveW: 0.15},
		ipcore.AD:  {ThroughputBPS: 0.2e9, PerFrame: 5 * sim.Microsecond, ActiveW: 0.03},
		ipcore.AE:  {ThroughputBPS: 0.2e9, PerFrame: 5 * sim.Microsecond, ActiveW: 0.03},
		ipcore.CAM: {ThroughputBPS: 1.5e9, PerFrame: 30 * sim.Microsecond, ActiveW: 0.12},
		ipcore.IMG: {ThroughputBPS: 6.0e9, PerFrame: 40 * sim.Microsecond, ActiveW: 0.20},
		ipcore.SND: {ThroughputBPS: 0.1e9, PerFrame: 2 * sim.Microsecond, ActiveW: 0.02},
		ipcore.MIC: {ThroughputBPS: 0.1e9, PerFrame: 2 * sim.Microsecond, ActiveW: 0.02},
		ipcore.NW:  {ThroughputBPS: 0.15e9, PerFrame: 15 * sim.Microsecond, ActiveW: 0.35},
		ipcore.MMC: {ThroughputBPS: 0.4e9, PerFrame: 20 * sim.Microsecond, ActiveW: 0.15},
	}
}

// stallPowerFrac and idlePowerFrac derive an IP's stall/idle power from
// its active power.
const stallPowerFrac, idlePowerFrac = 0.40, 0.01

// Config describes a platform build.
type Config struct {
	Mode Mode

	CPU  cpu.Config
	DRAM dram.Config
	NOC  noc.Config
	// IP holds the parameters of every IP kind, indexed by kind; the
	// platform builds one core of each.
	IP [ipcore.NumKinds]IPParams

	// LaneBufBytes is the per-lane flow-buffer size (2 KB = 32 cache
	// lines, the paper's §5.5 design point).
	LaneBufBytes int
	// SubframeBytes is the sub-frame transfer/scheduling granularity
	// (1 KB in §5.5).
	SubframeBytes int
	// VIPLanes is the lane count of virtualized IPs (up to 4 per §5.5).
	VIPLanes int
	// VIPPolicy is the hardware scheduler of virtualized IPs: EDF (the
	// paper's choice, §5.3), RR, or Priority.
	VIPPolicy ipcore.Policy
	// CtxSwitch is the VIP lane context-switch penalty.
	CtxSwitch sim.Time
	// SwitchPatience is how long a VIP IP tolerates its current lane
	// being blocked before context switching to another lane.
	SwitchPatience sim.Time

	// Metrics, when non-nil, collects every component's counters and
	// gauges (see internal/metrics); nil disables the whole layer at
	// zero cost.
	Metrics *metrics.Registry

	// Spans, when non-nil, records the deterministic sim-time span
	// stream (frame lifecycle, per-hop queue/service/DRAM/NoC segments,
	// QoS outcomes, recovery detours; see internal/telemetry), and the
	// IP/CPU/driver phase timeline too when it is a phase recorder (see
	// cmd/viptrace). Nil disables emission at zero cost.
	Spans *telemetry.Recorder

	// Faults configures the deterministic hardware-fault injector wired
	// through every component (see internal/fault). The zero value
	// injects nothing and keeps outputs bit-identical to a fault-free
	// build.
	Faults fault.Config

	// Recovery arms the fault-recovery stack: a watchdog on every IP lane
	// with reset, quarantine and repair (internal/ipcore), and the
	// driver's frame timeouts, retries and chain degradation
	// (internal/core). Each layer owns its fixed policy.
	Recovery bool
}

// DefaultConfig returns the Table 3 platform in the given mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:           mode,
		CPU:            cpu.DefaultConfig(),
		DRAM:           defaultDRAM(),
		NOC:            noc.DefaultConfig(),
		IP:             DefaultIPParams(),
		LaneBufBytes:   2 << 10,
		SubframeBytes:  1 << 10,
		VIPLanes:       4,
		VIPPolicy:      ipcore.EDF,
		CtxSwitch:      2 * sim.Microsecond,
		SwitchPatience: 5 * sim.Microsecond,
	}
}

// defaultDRAM tunes the Table 3 LPDDR3 so its aggregate peak (9.6 GB/s)
// sits just above the traffic four concurrent 4K video apps offer —
// matching the saturation and throughput collapse the paper measures in
// Figures 2b and 3c/d.
func defaultDRAM() dram.Config {
	cfg := dram.DefaultConfig()
	cfg.ChannelBPS = 2.4e9
	return cfg
}

func (c Config) validate() error {
	if c.LaneBufBytes <= 0 || c.SubframeBytes <= 0 {
		return fmt.Errorf("platform: buffer/sub-frame sizes must be positive")
	}
	if c.VIPLanes <= 0 || c.VIPLanes > 4 {
		return fmt.Errorf("platform: VIP lanes must be 1..4 (got %d)", c.VIPLanes)
	}
	if c.VIPPolicy == ipcore.FCFS && c.Mode.Virtualized() {
		return fmt.Errorf("platform: virtualized IPs need a multi-lane scheduler (EDF/RR/Priority)")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// Platform is one assembled SoC instance bound to a simulation engine.
type Platform struct {
	Eng  *sim.Engine
	Acct *energy.Account
	CPU  *cpu.Complex
	Mem  *dram.Controller
	SA   *noc.Fabric

	cfg  Config
	ips  [ipcore.NumKinds]*ipcore.Core // indexed by kind
	inj  *fault.Injector               // nil unless cfg.Faults enables a model
	next uint64                        // bump allocator for frame buffers
}

// New assembles a platform; it panics on invalid configuration
// (programming error in experiment setup).
func New(cfg Config) *Platform {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	acct := &energy.Account{}
	var inj *fault.Injector
	if cfg.Faults.Enabled() {
		var err error
		inj, err = fault.NewInjector(cfg.Faults)
		if err != nil {
			panic(err) // unreachable: validate() checked the config
		}
		inj.RegisterMetrics(cfg.Metrics)
	}
	cfg.CPU.Spans = cfg.Spans
	cfg.CPU.Metrics = cfg.Metrics
	cfg.DRAM.Metrics = cfg.Metrics
	cfg.DRAM.Injector = inj
	cfg.NOC.Metrics = cfg.Metrics
	cfg.NOC.Injector = inj
	if cfg.Metrics.Enabled() {
		cfg.Metrics.Gauge("sim.events_fired_total", func() float64 { return float64(eng.Fired()) })
		cfg.Metrics.Gauge("sim.pending_events", func() float64 { return float64(eng.Pending()) })
	}
	p := &Platform{
		Eng:  eng,
		Acct: acct,
		CPU:  cpu.New(eng, cfg.CPU, acct),
		Mem:  dram.NewController(eng, cfg.DRAM, acct),
		SA:   noc.NewFabric(eng, cfg.NOC, acct),
		cfg:  cfg,
		inj:  inj,
		next: 1 << 20,
	}
	sram := energy.DefaultSRAM()
	// Cores are built in kind order: construction registers gauges and
	// numbers engine bookkeeping.
	for k, prm := range cfg.IP {
		kind := ipcore.Kind(k)
		ipCfg := ipcore.Config{
			Name:          kind.String(),
			Kind:          kind,
			ThroughputBPS: prm.ThroughputBPS,
			PerFrame:      prm.PerFrame,
			Lanes:         1,
			LaneBufBytes:  cfg.LaneBufBytes,
			SubframeBytes: cfg.SubframeBytes,
			Policy:        ipcore.FCFS,
			MaxWrites:     8,
			Prefetch:      8,
			ActiveW:       prm.ActiveW,
			StallW:        prm.ActiveW * stallPowerFrac,
			IdleW:         prm.ActiveW*idlePowerFrac + 0.0005,
			Metrics:       cfg.Metrics,
			Spans:         cfg.Spans,
			Injector:      inj,
			Recovery:      cfg.Recovery,
		}
		if cfg.Mode.Virtualized() {
			ipCfg.Lanes = cfg.VIPLanes
			ipCfg.Policy = cfg.VIPPolicy
			ipCfg.CtxSwitch = cfg.CtxSwitch
			ipCfg.SwitchPatience = cfg.SwitchPatience
		}
		p.ips[k] = ipcore.NewCore(eng, ipCfg, p.SA, p.Mem, acct, sram)
	}
	return p
}

// Config returns the platform configuration.
func (p *Platform) Config() Config { return p.cfg }

// Metrics returns the configured metrics registry (nil when metrics are
// disabled; a nil registry is safe to use).
func (p *Platform) Metrics() *metrics.Registry { return p.cfg.Metrics }

// Spans returns the configured span recorder (nil when span tracing is
// off; a nil recorder is safe to use).
func (p *Platform) Spans() *telemetry.Recorder { return p.cfg.Spans }

// Injector returns the platform's fault injector (nil when fault
// injection is disabled; a nil injector is safe to use).
func (p *Platform) Injector() *fault.Injector { return p.inj }

// Mode returns the platform's system design.
func (p *Platform) Mode() Mode { return p.cfg.Mode }

// IP returns the core of a kind.
func (p *Platform) IP(kind ipcore.Kind) *ipcore.Core { return p.ips[kind] }

// Kinds lists the IP kinds in kind order; the platform has one core of
// every kind.
func (p *Platform) Kinds() (ks [ipcore.NumKinds]ipcore.Kind) {
	for i := range ks {
		ks[i] = ipcore.Kind(i)
	}
	return ks
}

// AllocFrame reserves a DRAM buffer of the given size and returns its
// base address (4 KB aligned, striped across channels by the interleave).
func (p *Platform) AllocFrame(bytes int) uint64 {
	if bytes < 0 {
		panic("platform: negative allocation")
	}
	const align = 4 << 10
	addr := p.next
	p.next += uint64((bytes + align - 1) / align * align)
	return addr
}

// FinalizeAccounting closes all open energy/time accounting at the
// current simulated time. Call once when a run ends.
func (p *Platform) FinalizeAccounting() {
	p.CPU.FinalizeAccounting()
	p.Mem.AccrueBackground()
	// Kind order keeps shared-category float accumulation reproducible.
	for _, c := range p.ips {
		c.FinalizeAccounting()
	}
}
