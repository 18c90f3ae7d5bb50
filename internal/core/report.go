package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/vipsim/vip/internal/cpu"
	"github.com/vipsim/vip/internal/dram"
	"github.com/vipsim/vip/internal/energy"
	"github.com/vipsim/vip/internal/fault"
	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
)

// FlowReport summarises one flow's QoS outcome.
type FlowReport struct {
	App      string
	Flow     string
	Display  bool
	FPS      float64
	Frames   int
	Complete int
	Dropped  int
	// Violations counts deadline misses + drops + expired frames.
	Violations    int
	ViolationRate float64
	AvgFlowTime   sim.Time
	MaxFlowTime   sim.Time
	P95FlowMS     float64
	P99FlowMS     float64
	AchievedFPS   float64
}

// IPReport summarises one IP core's activity.
type IPReport struct {
	Kind  ipcore.Kind
	Stats ipcore.Stats
}

// SimProfile is the simulator's own profile for one run: the model
// events the engine fired and the metrics sampler's cadence. These
// describe the simulator, not the simulated platform, and depend on
// nothing but the scenario, so same-seed reports stay byte-identical.
type SimProfile struct {
	EventsFired       uint64
	MetricsSamples    int
	MetricsIntervalNS int64
}

// Report is the full outcome of one Runner.Run.
type Report struct {
	Mode     platform.Mode
	Duration sim.Time

	// Energy.
	Energy          *energy.Account
	TotalEnergyJ    float64
	CPUEnergyJ      float64
	DRAMEnergyJ     float64
	IPEnergyJ       float64
	EnergyPerFrameJ float64 // total energy / displayed frames

	// CPU.
	CPU                cpu.Stats
	CPUActiveMSPerSec  float64
	InterruptsPer100ms float64

	// Memory.
	Mem         dram.Stats
	AvgBWBps    float64
	BWHistogram []int   // 10 bins of peak-fraction residency
	TimeAbove80 float64 // fraction of windows above 80% of peak BW

	// IPs in kind order.
	IPs []IPReport

	// Flows.
	Flows           []FlowReport
	DisplayedFrames int
	OfferedFrames   int

	// Aggregates over display flows.
	AvgFlowTime      sim.Time
	ViolationRate    float64
	AchievedFPSTotal float64

	// Game bursting.
	Rollbacks int

	// Sim is the simulator's self-profile (engine events, sampler).
	Sim SimProfile

	// Faults summarises fault injection and recovery; nil (and omitted
	// from JSON) when the run had neither an injector nor recovery, so
	// fault-free reports keep their exact shape.
	Faults *FaultReport `json:",omitempty"`

	// Counters holds the run's frame and fault counts at the end of the
	// run, and Distributions the metrics registry's distributions; both
	// are empty when metrics were disabled.
	Counters      map[string]float64             `json:",omitempty"`
	Distributions map[string]metrics.DistSummary `json:",omitempty"`
}

// FaultReport aggregates injected faults and the recovery work they
// triggered across the hardware and driver layers.
type FaultReport struct {
	// Injected counts faults drawn by the injector, per model.
	Injected fault.Counts

	// Hardware-side recovery, summed over IPs.
	Hangs         uint64
	WatchdogFires uint64
	LaneResets    uint64
	Quarantines   uint64
	Repairs       uint64
	Aborts        uint64

	// Memory and fabric retries.
	ECCRetries     uint64
	NoCRetransmits uint64

	// Driver-side recovery.
	FrameTimeouts int
	FrameRetries  int
	FramesFailed  int
	DegradedFlows int

	// Hang-to-recovery latency over all lanes.
	RecoveryCount  uint64
	RecoveryMeanMS float64
	RecoveryMaxMS  float64
}

// buildFaultReport assembles the fault summary, or nil for a fault-free,
// recovery-free run.
func (r *Runner) buildFaultReport(rep *Report) *FaultReport {
	inj := r.p.Injector()
	if inj == nil && !r.recovery {
		return nil
	}
	fr := &FaultReport{
		Injected:       inj.Counts(),
		ECCRetries:     rep.Mem.ECCRetries,
		NoCRetransmits: r.p.SA.Stats().Retransmits,
		FrameTimeouts:  r.frameTimeouts,
		FrameRetries:   r.frameRetries,
		FramesFailed:   r.framesFailed,
		DegradedFlows:  r.degradedFlows,
	}
	var recTime, recMax sim.Time
	for _, ip := range rep.IPs {
		s := ip.Stats
		fr.Hangs += s.Hangs
		fr.WatchdogFires += s.WatchdogFires
		fr.LaneResets += s.LaneResets
		fr.Quarantines += s.Quarantines
		fr.Repairs += s.Repairs
		fr.Aborts += s.Aborts
		fr.RecoveryCount += s.RecoveryCount
		recTime += s.RecoveryTime
		if s.RecoveryMax > recMax {
			recMax = s.RecoveryMax
		}
	}
	if fr.RecoveryCount > 0 {
		fr.RecoveryMeanMS = (recTime / sim.Time(fr.RecoveryCount)).Milliseconds()
	}
	fr.RecoveryMaxMS = recMax.Milliseconds()
	return fr
}

// buildReport assembles the report after a run.
func (r *Runner) buildReport() *Report {
	rep := &Report{
		Mode:     r.p.Mode(),
		Duration: r.opts.Duration,
		Energy:   r.p.Acct,
		CPU:      r.p.CPU.Stats(),
		Mem:      r.p.Mem.Stats(),

		Rollbacks: r.rollbacks,
	}
	rep.TotalEnergyJ = r.p.Acct.Total()
	rep.CPUEnergyJ = r.p.Acct.TotalPrefix("cpu.")
	rep.DRAMEnergyJ = r.p.Acct.TotalPrefix("dram.")
	rep.IPEnergyJ = r.p.Acct.TotalPrefix("ip.")
	secs := r.opts.Duration.Seconds()
	if secs > 0 {
		rep.CPUActiveMSPerSec = rep.CPU.ActiveTime.Milliseconds() / secs
		rep.InterruptsPer100ms = float64(rep.CPU.Interrupts) / secs / 10
	}
	rep.AvgBWBps = r.p.Mem.AvgBandwidthBPS()
	rep.BWHistogram = r.p.Mem.BandwidthHistogram(10)
	rep.TimeAbove80 = r.p.Mem.TimeAboveUtilization(0.8)

	rep.Sim = SimProfile{EventsFired: r.p.Eng.Fired()}
	if r.sampler != nil {
		rep.Sim.MetricsSamples = r.sampler.Samples()
		rep.Sim.MetricsIntervalNS = int64(r.sampler.Interval())
	}
	if reg := r.p.Metrics(); reg.Enabled() {
		rep.Counters = make(map[string]float64, len(r.counts))
		for _, c := range r.counts {
			rep.Counters[c.name] = c.read()
		}
		rep.Distributions = reg.Distributions()
	}

	for _, k := range r.p.Kinds() {
		rep.IPs = append(rep.IPs, IPReport{Kind: k, Stats: r.p.IP(k).Stats()})
	}
	rep.Faults = r.buildFaultReport(rep)

	var flowSum sim.Time
	var flowN int
	var violations, offered int
	for _, fs := range r.flows {
		q := fs.qos
		fr := FlowReport{
			App:           fs.aspec.ID,
			Flow:          fs.spec.Name,
			Display:       fs.spec.Display,
			FPS:           fs.spec.FPS,
			Frames:        q.Frames(),
			Complete:      q.CompletedFrames(),
			Dropped:       q.DroppedFrames(),
			Violations:    q.Violations(),
			ViolationRate: q.ViolationRate(),
			AvgFlowTime:   q.AvgFlowTime(),
			MaxFlowTime:   q.MaxFlowTime(),
			P95FlowMS:     q.P95FlowTimeMS(),
			P99FlowMS:     q.P99FlowTimeMS(),
			AchievedFPS:   q.AchievedFPS(r.opts.Duration),
		}
		rep.Flows = append(rep.Flows, fr)
		if fs.spec.Display {
			rep.DisplayedFrames += fr.Complete
			rep.AchievedFPSTotal += fr.AchievedFPS
			flowSum += q.AvgFlowTime() * sim.Time(fr.Complete)
			flowN += fr.Complete
			violations += fr.Violations
			offered += fr.Frames
		}
	}
	rep.OfferedFrames = offered
	if flowN > 0 {
		rep.AvgFlowTime = flowSum / sim.Time(flowN)
	}
	if offered > 0 {
		rep.ViolationRate = float64(violations) / float64(offered)
	}
	if rep.DisplayedFrames > 0 {
		rep.EnergyPerFrameJ = rep.TotalEnergyJ / float64(rep.DisplayedFrames)
	}
	sort.Slice(rep.Flows, func(i, j int) bool {
		if rep.Flows[i].App != rep.Flows[j].App {
			return rep.Flows[i].App < rep.Flows[j].App
		}
		return rep.Flows[i].Flow < rep.Flows[j].Flow
	})
	return rep
}

// WriteJSON writes the full report as indented JSON. Every field is
// exported and JSON-native (ints, floats, strings, maps with sorted
// keys), so the output round-trips through encoding/json and is stable
// for diffing across runs and PRs.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rep)
}

// IPStat returns the stats of one IP kind (zero value if absent).
func (rep *Report) IPStat(k ipcore.Kind) ipcore.Stats {
	for _, ip := range rep.IPs {
		if ip.Kind == k {
			return ip.Stats
		}
	}
	return ipcore.Stats{}
}

// String renders a human-readable summary.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%v dur=%v energy=%.1fmJ (cpu %.1f, dram %.1f, ip %.1f) e/frame=%.3fmJ\n",
		rep.Mode, rep.Duration, rep.TotalEnergyJ*1e3, rep.CPUEnergyJ*1e3, rep.DRAMEnergyJ*1e3,
		rep.IPEnergyJ*1e3, rep.EnergyPerFrameJ*1e3)
	fmt.Fprintf(&b, "cpu: active %.1f ms/s, %d interrupts (%.1f/100ms), %d instr\n",
		rep.CPUActiveMSPerSec, rep.CPU.Interrupts, rep.InterruptsPer100ms, rep.CPU.Instructions)
	fmt.Fprintf(&b, "mem: %.2f GB/s avg, rowhit %.0f%%, >80%%BW %.0f%% of time\n",
		rep.AvgBWBps/1e9, rep.Mem.RowHitRate()*100, rep.TimeAbove80*100)
	fmt.Fprintf(&b, "display: %d frames, avg flow %v, violations %.1f%%\n",
		rep.DisplayedFrames, rep.AvgFlowTime, rep.ViolationRate*100)
	if f := rep.Faults; f != nil {
		fmt.Fprintf(&b, "faults: %d injected (%d hangs), wdog %d fires/%d resets/%d quar; driver %d timeouts/%d retries/%d failed/%d degraded; ecc %d, noc rexmit %d\n",
			f.Injected.Total(), f.Hangs, f.WatchdogFires, f.LaneResets, f.Quarantines,
			f.FrameTimeouts, f.FrameRetries, f.FramesFailed, f.DegradedFlows,
			f.ECCRetries, f.NoCRetransmits)
	}
	for _, f := range rep.Flows {
		mark := " "
		if f.Display {
			mark = "*"
		}
		fmt.Fprintf(&b, " %s %s/%s: %d/%d frames, %d viol, flow %v (max %v)\n",
			mark, f.App, f.Flow, f.Complete, f.Frames, f.Violations, f.AvgFlowTime, f.MaxFlowTime)
	}
	return b.String()
}
