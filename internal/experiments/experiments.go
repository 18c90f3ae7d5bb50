// Package experiments regenerates every table and figure of the paper's
// evaluation (§2, §3, §4.3, §5.5 and §6): the motivation measurements
// (Figures 2-3), the touch studies (Figures 5-6), the buffer sizing study
// (Figure 14), and the headline comparisons of the five system designs
// (Figures 15-18), plus Tables 1-3.
//
// Each FigNN function runs the required simulations and returns a
// structured result with a Write method that prints the same rows/series
// the paper plots.
package experiments

import (
	"fmt"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/core"
	"github.com/vipsim/vip/internal/fault"
	"github.com/vipsim/vip/internal/parallel"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/workload"
)

// Config describes one simulation run of a scenario.
type Config struct {
	Mode platform.Mode
	// AppIDs lists Table 1 app and Table 2 workload ids, expanded by
	// workload.Expand; the cache key encodes them as given.
	AppIDs []string
	// Duration is the simulated time (default 400 ms).
	Duration sim.Time
	// FPSOverride, when non-zero, retargets every display flow.
	FPSOverride float64
	// IdealMemory swaps in the zero-latency DRAM (Figure 3's "Ideal").
	IdealMemory bool
	// LaneBufBytes overrides the per-lane flow-buffer size (Figure 14a).
	LaneBufBytes int
	// FaultRate, when positive, injects the fault.Uniform mix scaled by
	// this base rate: the lane-hang probability per compute chunk
	// (1 KB sub-frame).
	FaultRate float64
	// Recovery arms the watchdog/retry/quarantine stack (see
	// platform.Config.Recovery; only meaningful with a FaultRate).
	Recovery bool
}

// faultSeed seeds every faulted run's fault streams.
const faultSeed = 0x5eed

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 400 * sim.Millisecond
	}
	return c
}

// Run executes one scenario and returns the report. When a result cache
// is installed (SetCache), previously simulated configs are decoded from
// it instead of re-run — see cache.go for why reuse is sound.
func Run(cfg Config) (*core.Report, error) {
	return cachedRun(cfg.withDefaults(), runUncached)
}

// runUncached always simulates; cfg has its defaults filled.
func runUncached(cfg Config) (*core.Report, error) {
	pcfg := platform.DefaultConfig(cfg.Mode)
	if cfg.IdealMemory {
		pcfg.DRAM.Ideal = true
	}
	if cfg.LaneBufBytes > 0 {
		pcfg.LaneBufBytes = cfg.LaneBufBytes
	}
	if cfg.FaultRate > 0 {
		pcfg.Faults = fault.Uniform(cfg.FaultRate, faultSeed)
		pcfg.Recovery = cfg.Recovery
	}
	opts := core.DefaultOptions(cfg.Mode)
	opts.Duration = cfg.Duration
	return simulate(pcfg, opts, cfg.AppIDs, cfg.FPSOverride)
}

// simulate runs the apps and workloads that ids name (see
// workload.Expand) on a platform built from pcfg. A positive fps
// retargets every flow.
func simulate(pcfg platform.Config, opts core.Options, ids []string, fps float64) (*core.Report, error) {
	ids, err := workload.Expand(ids)
	if err != nil {
		return nil, err
	}
	specs := make([]app.Spec, len(ids))
	for i, id := range ids {
		if specs[i], err = workload.App(id); err != nil {
			return nil, err
		}
		if fps > 0 {
			for f := range specs[i].Flows {
				specs[i].Flows[f].FPS = fps
			}
		}
	}
	r, err := core.NewRunner(platform.New(pcfg), specs, opts)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// RunAll executes every config concurrently on the parallel executor
// (up to parallel.Jobs() workers) and returns the reports slotted by
// config index. Each run owns a private engine, platform and RNG tree,
// so fan-out cannot perturb any result: the returned slice — and on
// failure, the returned error — is identical to what a serial loop over
// Run would produce.
func RunAll(cfgs []Config) ([]*core.Report, error) {
	return parallel.Map(len(cfgs), func(i int) (*core.Report, error) {
		return Run(cfgs[i])
	})
}

// Scenario is one column of Figures 15-18: a single app (A1-A7) or a
// Table 2 mix (W1-W8).
type Scenario struct {
	ID     string
	AppIDs []string
}

// Scenarios returns the evaluation's 15 columns in paper order.
func Scenarios() []Scenario {
	out := make([]Scenario, 0, 15)
	for _, id := range workload.AppIDs() {
		out = append(out, Scenario{ID: id, AppIDs: []string{id}})
	}
	for _, w := range workload.Workloads() {
		out = append(out, Scenario{ID: w.ID, AppIDs: w.AppIDs})
	}
	return out
}

// ScenarioByID resolves one scenario id (A1..A7 or W1..W8).
func ScenarioByID(id string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.ID == id {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("experiments: unknown scenario %q", id)
}

// mean returns the arithmetic mean of vals (the paper's AVG bars are
// arithmetic); zero-length input yields 0.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
