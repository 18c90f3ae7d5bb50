// Package fault implements deterministic, seeded hardware-fault
// injection for the simulated platform. Real SoCs do not behave like the
// paper's happy path: IP lanes hang (transiently after a bus glitch, or
// permanently after a latch-up), accelerators degrade under thermal
// throttling, DRAM takes transient errors that ECC corrects at a latency
// cost, the interconnect drops or corrupts sub-frame packets, completion
// interrupts get lost between the IP and the CPU, and flow-control
// credits vanish. The Injector models each of these as an independent,
// seeded Bernoulli process evaluated at the natural hardware event
// (compute chunk, DRAM beat, SA transfer, interrupt, credit signal), so
// two runs with the same seed and the same fault configuration inject
// byte-identical fault sequences.
//
// Like telemetry.Recorder and metrics.Registry, the whole layer is nil-safe
// and zero-cost when disabled: every method on a nil *Injector reports
// "no fault" without drawing randomness, so component models query it
// unconditionally and a run without faults is bit-identical to a build
// without the package.
package fault

import (
	"fmt"

	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/sim"
)

// Config describes the fault environment. All rates are per-event
// probabilities in [0, 1]; the event each rate applies to is documented
// on the field. A zero Config injects nothing.
type Config struct {
	// Seed drives the injector's random streams. Independent of the
	// scenario seed so fault patterns can be varied while the workload
	// stays fixed. Zero is remapped to a fixed constant.
	Seed uint64

	// LaneHangRate is the per-compute-chunk probability that the IP
	// lane serving the chunk hangs transiently (stuck handshake, bus
	// glitch); the hang self-clears after an exponentially distributed
	// time with mean LaneHangMean unless a watchdog resets it first.
	LaneHangRate float64
	LaneHangMean sim.Time

	// PermanentRate is the per-compute-chunk probability that the lane
	// hangs permanently (latch-up): it never self-clears, lane resets
	// fail, and only quarantine + repair restores service.
	PermanentRate float64

	// SlowdownRate is the per-compute-chunk probability that the chunk
	// executes SlowdownFactor times slower (thermal throttling, DVFS
	// dip). SlowdownFactor <= 1 disables the model.
	SlowdownRate   float64
	SlowdownFactor float64

	// DRAMErrorRate is the per-DRAM-beat probability of a transient
	// error that ECC corrects by re-reading the beat, adding
	// ECCRetryLatency to the beat's service time.
	DRAMErrorRate   float64
	ECCRetryLatency sim.Time

	// NoCDropRate is the per-SA-transfer probability that the transfer
	// is dropped or corrupted in flight and must be retransmitted
	// (paying the wire time again).
	NoCDropRate float64

	// LostInterruptRate is the per-interrupt probability that an IP
	// completion interrupt never reaches the CPU. Without driver-level
	// timeouts this strands the frame (and, under burst deep-sleep,
	// the CPU) forever.
	LostInterruptRate float64

	// CreditLossRate is the per-signal probability that a flow-control
	// credit (buffer not-full flag) is lost, leaving the producer
	// parked until the next credit or a driver timeout.
	CreditLossRate float64
}

// Enabled reports whether any fault model has a positive rate.
func (c Config) Enabled() bool {
	return c.LaneHangRate > 0 || c.PermanentRate > 0 || c.SlowdownRate > 0 ||
		c.DRAMErrorRate > 0 || c.NoCDropRate > 0 || c.LostInterruptRate > 0 ||
		c.CreditLossRate > 0
}

// Validate checks every rate and latency for sanity.
func (c Config) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"LaneHangRate", c.LaneHangRate},
		{"PermanentRate", c.PermanentRate},
		{"SlowdownRate", c.SlowdownRate},
		{"DRAMErrorRate", c.DRAMErrorRate},
		{"NoCDropRate", c.NoCDropRate},
		{"LostInterruptRate", c.LostInterruptRate},
		{"CreditLossRate", c.CreditLossRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s must be in [0,1], got %g", r.name, r.v)
		}
	}
	if c.LaneHangRate+c.PermanentRate > 1 {
		return fmt.Errorf("fault: LaneHangRate+PermanentRate must not exceed 1")
	}
	if c.LaneHangRate > 0 && c.LaneHangMean <= 0 {
		return fmt.Errorf("fault: LaneHangRate needs a positive LaneHangMean")
	}
	if c.DRAMErrorRate > 0 && c.ECCRetryLatency <= 0 {
		return fmt.Errorf("fault: DRAMErrorRate needs a positive ECCRetryLatency")
	}
	if c.SlowdownRate > 0 && c.SlowdownFactor <= 1 {
		return fmt.Errorf("fault: SlowdownRate needs SlowdownFactor > 1")
	}
	return nil
}

// Uniform returns the canonical mixed-fault environment scaled by rate,
// the lane-hang probability per compute chunk: every model active, with
// relative weights chosen so that each class of fault is visible at
// moderate rates (interrupts are rare events, so their loss rate is
// boosted; DRAM beats are plentiful, so theirs is attenuated).
func Uniform(rate float64, seed uint64) Config {
	clamp := func(v float64) float64 {
		if v > 1 {
			return 1
		}
		return v
	}
	return Config{
		Seed:              seed,
		LaneHangRate:      clamp(rate),
		LaneHangMean:      2 * sim.Millisecond,
		PermanentRate:     clamp(rate / 25),
		SlowdownRate:      clamp(4 * rate),
		SlowdownFactor:    3,
		DRAMErrorRate:     clamp(rate / 4),
		ECCRetryLatency:   250 * sim.Nanosecond,
		NoCDropRate:       clamp(rate),
		LostInterruptRate: clamp(40 * rate),
		CreditLossRate:    clamp(rate),
	}
}

// Hang describes one injected lane hang.
type Hang struct {
	// Duration is how long a transient hang lasts before self-clearing
	// (ignored for permanent hangs).
	Duration sim.Time
	// Permanent marks a hang that never self-clears and that lane
	// resets cannot fix.
	Permanent bool
}

// Counts aggregates the faults the injector actually delivered.
type Counts struct {
	LaneHangs      uint64
	PermanentHangs uint64
	Slowdowns      uint64
	DRAMErrors     uint64
	NoCDrops       uint64
	LostInterrupts uint64
	CreditLosses   uint64
}

// Total sums every injected fault.
func (c Counts) Total() uint64 {
	return c.LaneHangs + c.PermanentHangs + c.Slowdowns + c.DRAMErrors +
		c.NoCDrops + c.LostInterrupts + c.CreditLosses
}

// Injector is one platform's fault source. Each fault model draws from
// its own random stream so that enabling one model never perturbs the
// fault sequence of another. A nil Injector injects nothing.
type Injector struct {
	cfg    Config
	counts Counts

	lane, slow, dram, noc, intr, credit *sim.RNG
}

// NewInjector builds an injector; it returns an error on an invalid
// configuration.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	master := sim.NewRNG(cfg.Seed)
	return &Injector{
		cfg:    cfg,
		lane:   master.Fork(),
		slow:   master.Fork(),
		dram:   master.Fork(),
		noc:    master.Fork(),
		intr:   master.Fork(),
		credit: master.Fork(),
	}, nil
}

// Enabled reports whether the injector is active.
func (i *Injector) Enabled() bool { return i != nil && i.cfg.Enabled() }

// Counts returns the faults delivered so far.
func (i *Injector) Counts() Counts {
	if i == nil {
		return Counts{}
	}
	return i.counts
}

// LaneHang draws once per compute chunk; it reports whether the serving
// lane hangs, and how.
func (i *Injector) LaneHang() (Hang, bool) {
	if i == nil || (i.cfg.LaneHangRate <= 0 && i.cfg.PermanentRate <= 0) {
		return Hang{}, false
	}
	u := i.lane.Float64()
	switch {
	case u < i.cfg.PermanentRate:
		i.counts.PermanentHangs++
		return Hang{Permanent: true}, true
	case u < i.cfg.PermanentRate+i.cfg.LaneHangRate:
		i.counts.LaneHangs++
		d := sim.Time(i.lane.Exp(float64(i.cfg.LaneHangMean)))
		if d < sim.Microsecond {
			d = sim.Microsecond
		}
		return Hang{Duration: d}, true
	}
	return Hang{}, false
}

// Slowdown draws once per compute chunk; it reports the chunk's compute
// multiplier when a throttling fault fires.
func (i *Injector) Slowdown() (float64, bool) {
	if i == nil || i.cfg.SlowdownRate <= 0 {
		return 1, false
	}
	if i.slow.Float64() < i.cfg.SlowdownRate {
		i.counts.Slowdowns++
		return i.cfg.SlowdownFactor, true
	}
	return 1, false
}

// DRAMError draws once per DRAM beat; it reports the extra ECC-retry
// latency when a transient error fires.
func (i *Injector) DRAMError() (sim.Time, bool) {
	if i == nil || i.cfg.DRAMErrorRate <= 0 {
		return 0, false
	}
	if i.dram.Float64() < i.cfg.DRAMErrorRate {
		i.counts.DRAMErrors++
		return i.cfg.ECCRetryLatency, true
	}
	return 0, false
}

// NoCDrop draws once per completed SA transfer; it reports whether the
// transfer was dropped/corrupted and must be retransmitted.
func (i *Injector) NoCDrop() bool {
	if i == nil || i.cfg.NoCDropRate <= 0 {
		return false
	}
	if i.noc.Float64() < i.cfg.NoCDropRate {
		i.counts.NoCDrops++
		return true
	}
	return false
}

// LostInterrupt draws once per delivered interrupt; it reports whether
// the interrupt vanished.
func (i *Injector) LostInterrupt() bool {
	if i == nil || i.cfg.LostInterruptRate <= 0 {
		return false
	}
	if i.intr.Float64() < i.cfg.LostInterruptRate {
		i.counts.LostInterrupts++
		return true
	}
	return false
}

// CreditLoss draws once per flow-control signal; it reports whether the
// credit was lost in flight.
func (i *Injector) CreditLoss() bool {
	if i == nil || i.cfg.CreditLossRate <= 0 {
		return false
	}
	if i.credit.Float64() < i.cfg.CreditLossRate {
		i.counts.CreditLosses++
		return true
	}
	return false
}

// RegisterMetrics exposes the injected-fault counts as gauges so the
// sampler records fault arrival over time. A no-op when metrics are
// disabled.
func (i *Injector) RegisterMetrics(reg *metrics.Registry) {
	if i == nil || !reg.Enabled() {
		return
	}
	reg.Gauge("fault.injected.lane_hangs_total", func() float64 { return float64(i.counts.LaneHangs) })
	reg.Gauge("fault.injected.permanent_hangs_total", func() float64 { return float64(i.counts.PermanentHangs) })
	reg.Gauge("fault.injected.slowdowns_total", func() float64 { return float64(i.counts.Slowdowns) })
	reg.Gauge("fault.injected.dram_errors_total", func() float64 { return float64(i.counts.DRAMErrors) })
	reg.Gauge("fault.injected.noc_drops_total", func() float64 { return float64(i.counts.NoCDrops) })
	reg.Gauge("fault.injected.lost_interrupts_total", func() float64 { return float64(i.counts.LostInterrupts) })
	reg.Gauge("fault.injected.credit_losses_total", func() float64 { return float64(i.counts.CreditLosses) })
}
