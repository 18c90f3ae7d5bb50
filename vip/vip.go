// Package vip is the public API of the VIP reproduction: a simulation
// library for studying virtualized IP-core chains on handheld SoCs, as
// proposed in "VIP: Virtualizing IP Chains on Handheld Platforms"
// (ISCA 2015).
//
// The library models a complete handheld platform — CPU complex, LPDDR3
// memory, System Agent interconnect, and a dozen accelerator IP cores —
// and executes frame-based applications (video playback/recording,
// games, telephony) under five system designs:
//
//   - Baseline: today's per-frame, CPU-orchestrated, memory-staged flows;
//   - FrameBurst: burst-mode CPU scheduling (one kick per N frames);
//   - IPToIP: direct IP-to-IP chaining through flow buffers;
//   - IPToIPBurst: chaining plus bursts (no hardware virtualization);
//   - VIP: the paper's proposal — chaining, bursts, and multi-lane
//     virtualized IPs with a hardware EDF scheduler.
//
// Quick start:
//
//	result, err := vip.Simulate(vip.Scenario{
//		System: vip.SystemVIP,
//		Apps:   []string{"A5", "A5"}, // two concurrent video players
//	})
//	fmt.Println(result.Summary())
//
// Application identifiers follow Table 1 of the paper (A1..A7); workload
// identifiers follow Table 2 (W1..W8). Custom applications can be built
// with the App/Flow types and run with SimulateApps.
package vip

import (
	"fmt"
	"io"
	"strings"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/core"
	"github.com/vipsim/vip/internal/fault"
	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/telemetry"
	"github.com/vipsim/vip/internal/workload"
)

// System selects one of the paper's five system designs; it is the
// platform's design mode (re-exported, like Duration), so its String
// names the design as the paper's figures do.
type System = platform.Mode

// The five designs of §6.2, in the order the paper plots them.
const (
	SystemBaseline    = platform.Baseline
	SystemFrameBurst  = platform.FrameBurst
	SystemIPToIP      = platform.IPToIP
	SystemIPToIPBurst = platform.IPToIPBurst
	SystemVIP         = platform.VIP
)

// Systems lists all five designs in plotting order.
func Systems() []System { return platform.AllModes() }

// ParseSystem resolves a user-facing system name (as accepted by the
// CLI -system flags and the vipserve API) to a System. Matching is
// case-insensitive and accepts the common short aliases.
func ParseSystem(s string) (System, error) {
	switch strings.ToLower(s) {
	case "baseline", "base":
		return SystemBaseline, nil
	case "frameburst", "fb", "burst":
		return SystemFrameBurst, nil
	case "iptoip", "ip2ip", "chain":
		return SystemIPToIP, nil
	case "iptoipburst", "ip2ip+fb", "chainburst":
		return SystemIPToIPBurst, nil
	case "vip":
		return SystemVIP, nil
	}
	return 0, fmt.Errorf("vip: unknown system %q (baseline|frameburst|iptoip|iptoipburst|vip)", s)
}

// Duration is a simulated duration in nanoseconds (re-exported from the
// simulation kernel for convenience).
type Duration = sim.Time

// Common durations.
const (
	Millisecond Duration = sim.Millisecond
	Second      Duration = sim.Second
)

// Scenario describes one simulation.
type Scenario struct {
	// System is the design under test.
	System System
	// Apps lists Table 1 application ids ("A1".."A7") and/or Table 2
	// workload ids ("W1".."W8", expanded to their app mixes).
	Apps []string
	// Duration is the simulated time; 0 means the 500 ms default.
	Duration Duration
	// BurstSize overrides the nominal frame-burst size (default 5).
	BurstSize int
	// Seed drives the touch models and per-frame jitter (default 1).
	Seed uint64
	// IdealMemory swaps in a zero-latency memory (upper-bound studies).
	IdealMemory bool
	// LaneBufferBytes overrides the per-lane flow-buffer size
	// (default 2048, the paper's design point).
	LaneBufferBytes int
	// ChromeTrace, when non-nil, receives a Chrome/Perfetto trace of the
	// run's phase timeline: what every IP, CPU core and flow was doing,
	// when (open in ui.perfetto.dev). Keep traced runs short: traces are
	// sub-frame-granular and grow quickly.
	ChromeTrace io.Writer
	// TraceSpans, when true, records the causal frame-lifecycle span
	// stream: one span per frame (release to display, with its QoS
	// outcome), per-hop queue/service segments annotated with DRAM/NoC
	// wait time, and fault-recovery detours. Spans are stamped from the
	// deterministic simulation clock, so same-seed runs export
	// byte-identical span logs. Read them back through Result.Spans,
	// Result.WriteSpanJSONL and Result.WriteSpanChrome.
	TraceSpans bool
	// MetricsInterval, when positive, enables the metrics layer: every
	// component registers its counters and gauges, and a sampler
	// snapshots them into time series at this simulated period (1 ms is
	// the conventional choice). Zero disables metrics at zero cost.
	MetricsInterval Duration
	// OnMetricsSnapshot, when non-nil (and metrics are enabled), is
	// called after every sampler tick with the latest Prometheus-format
	// snapshot; the vipsim -metrics-addr live endpoint publishes from
	// this hook.
	OnMetricsSnapshot func(prom []byte)
	// Faults, when non-nil, enables seeded fault injection and (unless
	// DisableRecovery is set) the full recovery stack: per-lane hardware
	// watchdogs, driver frame timeouts with bounded retry, lane
	// quarantine/reallocation, and graceful chain degradation. Nil runs
	// are bit-identical to builds without the fault layer.
	Faults *Faults
}

// Faults configures the deterministic fault injector from one base
// rate, which every fault model scales with (see fault.Uniform).
type Faults struct {
	// Rate is the base fault rate: the probability that an IP lane
	// hangs, drawn once per compute chunk (1 KB sub-frame), not once per
	// job. A 4K decode job is 12 150 chunks, so a Rate of 1e-4 hangs
	// about 70 % of such jobs. The other models scale with Rate the way
	// their fault opportunities occur: frequent events (DRAM beats) get
	// lower per-event rates, rare catastrophic ones (permanent hangs)
	// lower still, and rare interrupts a higher one. A transient and a
	// permanent hang share one draw, so Rate may be at most 1/1.04.
	Rate float64
	// Seed drives the fault streams independently of Scenario.Seed;
	// zero derives it from Scenario.Seed.
	Seed uint64
	// DisableRecovery injects faults with the whole recovery stack off:
	// no watchdogs, no frame retries, no quarantine, no degradation.
	// Frames stuck on a hung lane simply miss their deadlines — the
	// control arm of the fault experiments.
	DisableRecovery bool
}

// config lowers the public Faults to the internal injector config.
func (f *Faults) config(fallbackSeed uint64) fault.Config {
	seed := f.Seed
	if seed == 0 {
		seed = fallbackSeed ^ 0xfa17
	}
	return fault.Uniform(f.Rate, seed)
}

// validate rejects malformed scenarios with descriptive errors before
// any platform state is built (negative knobs used to be silently
// ignored; now they fail loudly).
func (sc Scenario) validate() error {
	if sc.System < SystemBaseline || sc.System > SystemVIP {
		return fmt.Errorf("vip: unknown system %d", int(sc.System))
	}
	if sc.Duration < 0 {
		return fmt.Errorf("vip: Duration must be non-negative (got %v)", sc.Duration)
	}
	if sc.BurstSize < 0 {
		return fmt.Errorf("vip: BurstSize must be non-negative (got %d)", sc.BurstSize)
	}
	if sc.LaneBufferBytes < 0 {
		return fmt.Errorf("vip: LaneBufferBytes must be non-negative (got %d)", sc.LaneBufferBytes)
	}
	if sc.MetricsInterval < 0 {
		return fmt.Errorf("vip: MetricsInterval must be non-negative (got %v)", sc.MetricsInterval)
	}
	if f := sc.Faults; f != nil {
		if !(f.Rate >= 0 && f.Rate <= 1) {
			return fmt.Errorf("vip: Faults.Rate must be in [0,1] (got %g)", f.Rate)
		}
		if err := f.config(1).Validate(); err != nil {
			return fmt.Errorf("vip: Faults: %w", err)
		}
	}
	return nil
}

// Simulate runs a scenario and returns its result.
func Simulate(sc Scenario) (*Result, error) {
	ids, err := workload.Expand(sc.Apps)
	if err != nil {
		return nil, err
	}
	specs := make([]app.Spec, len(ids))
	for i, id := range ids {
		if specs[i], err = workload.App(id); err != nil {
			return nil, err
		}
	}
	return SimulateApps(sc, specs...)
}

// SimulateApps runs a scenario over explicitly constructed applications,
// allowing flows beyond the Table 1 catalog.
func SimulateApps(sc Scenario, apps ...app.Spec) (*Result, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("vip: no applications to simulate")
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	pcfg := platform.DefaultConfig(sc.System)
	if sc.IdealMemory {
		pcfg.DRAM.Ideal = true
	}
	if sc.LaneBufferBytes > 0 {
		pcfg.LaneBufBytes = sc.LaneBufferBytes
	}
	// One recorder serves ChromeTrace (its phase category) and
	// TraceSpans (its span log, handed to the Result only when asked for).
	switch {
	case sc.ChromeTrace != nil:
		pcfg.Spans = telemetry.NewPhaseRecorder()
	case sc.TraceSpans:
		pcfg.Spans = telemetry.NewRecorder()
	}
	if sc.MetricsInterval > 0 {
		pcfg.Metrics = metrics.NewRegistry()
	}
	opts := core.DefaultOptions(sc.System)
	if sc.Duration > 0 {
		opts.Duration = sc.Duration
	}
	if sc.BurstSize > 0 {
		opts.BurstSize = sc.BurstSize
	}
	if sc.Seed != 0 {
		opts.Seed = sc.Seed
	}
	if f := sc.Faults; f != nil {
		pcfg.Faults = f.config(opts.Seed)
		pcfg.Recovery = !f.DisableRecovery
	}
	p := platform.New(pcfg)
	if sc.MetricsInterval > 0 {
		opts.MetricsInterval = sc.MetricsInterval
		if snap := sc.OnMetricsSnapshot; snap != nil {
			opts.OnMetricsSample = func(s *metrics.Sampler) { snap(s.Prometheus()) }
		}
	}
	r, err := core.NewRunner(p, apps, opts)
	if err != nil {
		return nil, err
	}
	rep, err := r.Run()
	if err != nil {
		return nil, err
	}
	if sc.ChromeTrace != nil {
		if err := pcfg.Spans.WritePhaseChrome(sc.ChromeTrace); err != nil {
			return nil, fmt.Errorf("vip: writing trace: %w", err)
		}
	}
	res := newResult(sc, rep)
	if s := r.Sampler(); s != nil {
		res.ts = s.TimeSeries()
	}
	if sc.TraceSpans {
		res.spans = pcfg.Spans
	}
	return res, nil
}

// AppIDs lists the Table 1 application identifiers.
func AppIDs() []string { return workload.AppIDs() }

// WorkloadIDs lists the Table 2 workload identifiers.
func WorkloadIDs() []string {
	ids := make([]string, 0, 8)
	for _, w := range workload.Workloads() {
		ids = append(ids, w.ID)
	}
	return ids
}
