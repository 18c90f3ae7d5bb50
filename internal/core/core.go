// Package core implements the paper's contribution: the software/hardware
// orchestration of IP flows under the five system designs of §6.2 —
// Baseline, Frame Burst, IP-to-IP, IP-to-IP with Frame Burst, and VIP —
// on top of the platform substrate.
//
// The package plays the role of the Android driver stack plus the
// proposed VIP extensions:
//
//   - chain instantiation (the open() call of Figures 9-11): one lane
//     per hop, and a header packet (Figure 12) sized per IP ahead of
//     each chained frame or burst;
//   - frame-burst scheduling (Schedule_FrameBurst), including GOP-derived
//     burst sizes for codec apps and touch-aware hybrid bursting for
//     games (§4.3);
//   - per-frame CPU driver work, interrupt service, and the DMA staging
//     copies that memory-mediated designs pay on every hop;
//   - per-flow QoS tracking (deadlines, violations, drops, flow time).
package core

import (
	"fmt"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
)

// The CPU-side driver cost model. Durations are per invocation;
// instruction counts scale with duration at roughly one instruction per
// nanosecond on the in-order core.
const (
	// setupPerIP is the per-frame, per-IP driver invocation in
	// memory-mediated designs (request buffers, map pointers, program
	// the IP).
	setupPerIP = 30 * sim.Microsecond
	// isr is one interrupt service routine (top + bottom half).
	isr = 12 * sim.Microsecond
	// chainSetupBase/PerHop is the per-frame super-request setup cost
	// when the flow is chained (one invocation regardless of length).
	chainSetupBase   = 30 * sim.Microsecond
	chainSetupPerHop = 8 * sim.Microsecond
	// burstSetupBase/PerFrame is the burst descriptor build cost.
	burstSetupBase     = 20 * sim.Microsecond
	burstSetupPerFrame = 10 * sim.Microsecond
	// burstResiduePerFrame is driver work that stays per-frame even in
	// burst mode (buffer-queue bookkeeping).
	burstResiduePerFrame = 20 * sim.Microsecond
	// chainOpen is the one-time open() cost instantiating a chain.
	chainOpen = 100 * sim.Microsecond
	// touchInput is the input-pipeline cost of one tap/flick event.
	touchInput = 50 * sim.Microsecond
	// handoff is the software latency of bouncing a frame between
	// stages in the baseline: interrupt bottom half, Binder callback,
	// app thread wake-up, BufferQueue exchange. It is latency (the
	// frame waits), not CPU-active time, and it is exactly what frame
	// bursts and chaining eliminate.
	handoff = 1200 * sim.Microsecond
)

// Driver policy of the paper's evaluation setup.
const (
	// gameBurstCap bounds game bursts for responsiveness (<10 frames
	// per §4.3).
	gameBurstCap = 10
	// maxBacklog is the per-flow limit of in-flight frames before the
	// driver drops new ones (the Nexus 7 VD queue depth of §2.2 is 7).
	maxBacklog = 7
	// iFrameFactor is the compute-cost multiplier of the independent
	// frame that opens each GOP (I-frames decode/encode slower).
	iFrameFactor = 1.8
)

// Options configures a Runner.
type Options struct {
	// Mode is the system design under test.
	Mode platform.Mode
	// Duration is the simulated run length.
	Duration sim.Time
	// BurstSize is the nominal frame-burst size (5 in the paper's
	// examples); GOP structure and game rules may shrink it per flow.
	BurstSize int
	// Seed drives the touch models and any other randomness.
	Seed uint64
	// ComputeNoise is the +/- fraction of per-frame compute jitter
	// (scene complexity).
	ComputeNoise float64
	// MetricsInterval, when positive and the platform carries a metrics
	// registry, samples every gauge into time series at this simulated
	// period (1 ms is a good default).
	MetricsInterval sim.Time
	// OnMetricsSample, when non-nil, runs after every sampler tick — the
	// live /metrics endpoint publishes snapshots from this hook.
	OnMetricsSample func(*metrics.Sampler)
}

// DefaultOptions returns options matching the paper's evaluation setup.
func DefaultOptions(mode platform.Mode) Options {
	return Options{
		Mode:         mode,
		Duration:     sim.Second / 2,
		BurstSize:    5,
		Seed:         1,
		ComputeNoise: 0.15,
	}
}

func (o Options) validate() error {
	if o.Duration <= 0 {
		return fmt.Errorf("core: duration must be positive")
	}
	if o.BurstSize <= 0 {
		return fmt.Errorf("core: burst size must be positive")
	}
	return nil
}

// effectiveBurst computes the burst size a flow of the given app uses in
// burst-capable modes: GOP-bounded for codec apps, capped for games, 1
// while the user is flicking (§4.3).
func (o Options) effectiveBurst(spec *app.Spec, flicking bool) int {
	b := o.BurstSize
	if spec.GOP > 0 && spec.GOP < b {
		b = spec.GOP
	}
	if spec.Class == app.ClassGame {
		if flicking {
			return 1
		}
		if b > gameBurstCap {
			b = gameBurstCap
		}
	}
	if b < 1 {
		b = 1
	}
	return b
}
