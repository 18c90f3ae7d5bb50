package experiments

import (
	"fmt"
	"io"

	"github.com/vipsim/vip/internal/core"
	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/parallel"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/stats"
)

// This file holds the ablation studies over VIP's design choices that the
// paper fixes without sweeping: the hardware scheduling policy (§5.3
// adopts EDF "given its simplicity ... [though it] may not be suitable
// for ensuring fairness"), the lane count (§5.5 supports up to 4), the
// burst size (§4.3 uses 5), the lane context-switch cost, and the
// sub-frame granularity (§5.5 uses 1 KB).

// runCustom runs the apps and workloads that ids name on a VIP platform
// with the mutations applied, and returns the report.
func runCustom(ids []string, dur sim.Time, mutPlat func(*platform.Config), mutOpts func(*core.Options)) (*core.Report, error) {
	pcfg := platform.DefaultConfig(platform.VIP)
	if mutPlat != nil {
		mutPlat(&pcfg)
	}
	opts := core.DefaultOptions(platform.VIP)
	opts.Duration = dur
	if mutOpts != nil {
		mutOpts(&opts)
	}
	return simulate(pcfg, opts, ids, 0)
}

// runCustomAll fans one runCustom call per index out on the parallel
// executor — the index selects the swept parameter value inside the
// mutators — and returns the reports slotted by index, so every sweep
// table reads exactly as its serial loop did.
func runCustomAll(n int, appIDs []string, dur sim.Time,
	mutPlat func(i int, c *platform.Config), mutOpts func(i int, o *core.Options)) ([]*core.Report, error) {
	return parallel.Map(n, func(i int) (*core.Report, error) {
		var mp func(*platform.Config)
		if mutPlat != nil {
			mp = func(c *platform.Config) { mutPlat(i, c) }
		}
		var mo func(*core.Options)
		if mutOpts != nil {
			mo = func(o *core.Options) { mutOpts(i, o) }
		}
		return runCustom(appIDs, dur, mp, mo)
	})
}

// SchedRow is one hardware-scheduler outcome on a shared-IP workload.
type SchedRow struct {
	Policy        ipcore.Policy
	EnergyPerFr   float64
	AvgFlowMS     float64
	P99FlowMS     float64
	ViolationRate float64
	FairnessJain  float64 // over per-display-flow achieved FPS
	CtxSwitches   uint64
}

// SchedulerStudy compares EDF, RR and fixed Priority on a decoder-sharing
// workload (W1 by default).
type SchedulerStudy struct {
	Workload string
	Rows     []SchedRow
}

// RunSchedulerStudy executes the three policies.
func RunSchedulerStudy(workloadID string, dur sim.Time) (*SchedulerStudy, error) {
	if workloadID == "" {
		workloadID = "W1"
	}
	st := &SchedulerStudy{Workload: workloadID}
	policies := []ipcore.Policy{ipcore.EDF, ipcore.RR, ipcore.Priority}
	reps, err := runCustomAll(len(policies), []string{workloadID}, dur,
		func(i int, c *platform.Config) { c.VIPPolicy = policies[i] }, nil)
	if err != nil {
		return nil, err
	}
	for pi, pol := range policies {
		rep := reps[pi]
		var fps []float64
		var p99 float64
		for _, f := range rep.Flows {
			if f.Display {
				fps = append(fps, f.AchievedFPS)
				if f.P99FlowMS > p99 {
					p99 = f.P99FlowMS
				}
			}
		}
		var ctx uint64
		for _, ip := range rep.IPs {
			ctx += ip.Stats.CtxSwitch
		}
		st.Rows = append(st.Rows, SchedRow{
			Policy:        pol,
			EnergyPerFr:   rep.EnergyPerFrameJ,
			AvgFlowMS:     rep.AvgFlowTime.Milliseconds(),
			P99FlowMS:     p99,
			ViolationRate: rep.ViolationRate,
			FairnessJain:  stats.JainIndex(fps),
			CtxSwitches:   ctx,
		})
	}
	return st, nil
}

// Write prints the study.
func (st *SchedulerStudy) Write(w io.Writer) {
	fmt.Fprintf(w, "Ablation: VIP hardware scheduler on %s (paper picks EDF, §5.3)\n", st.Workload)
	fmt.Fprintf(w, "%-10s%14s%11s%11s%9s%11s%8s\n",
		"policy", "energy/frame", "flow(ms)", "p99(ms)", "viol%", "fair(Jain)", "ctxsw")
	for _, r := range st.Rows {
		fmt.Fprintf(w, "%-10v%11.3f mJ%11.2f%11.2f%9.1f%11.3f%8d\n",
			r.Policy, r.EnergyPerFr*1e3, r.AvgFlowMS, r.P99FlowMS,
			r.ViolationRate*100, r.FairnessJain, r.CtxSwitches)
	}
}

// SweepRow is one parameter point of a one-dimensional ablation.
type SweepRow struct {
	Param         float64
	Label         string
	EnergyPerFr   float64
	AvgFlowMS     float64
	ViolationRate float64
	IntrPer100ms  float64
	CtxSwitches   uint64
}

// Sweep is a one-dimensional ablation result.
type Sweep struct {
	Title string
	Rows  []SweepRow
}

// Write prints the sweep.
func (s *Sweep) Write(w io.Writer) {
	fmt.Fprintln(w, s.Title)
	fmt.Fprintf(w, "%-12s%14s%11s%9s%12s%8s\n",
		"value", "energy/frame", "flow(ms)", "viol%", "intr/100ms", "ctxsw")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-12s%11.3f mJ%11.2f%9.1f%12.1f%8d\n",
			r.Label, r.EnergyPerFr*1e3, r.AvgFlowMS, r.ViolationRate*100,
			r.IntrPer100ms, r.CtxSwitches)
	}
}

func sweepRow(label string, param float64, rep *core.Report) SweepRow {
	var ctx uint64
	for _, ip := range rep.IPs {
		ctx += ip.Stats.CtxSwitch
	}
	return SweepRow{
		Param:         param,
		Label:         label,
		EnergyPerFr:   rep.EnergyPerFrameJ,
		AvgFlowMS:     rep.AvgFlowTime.Milliseconds(),
		ViolationRate: rep.ViolationRate,
		IntrPer100ms:  rep.InterruptsPer100ms,
		CtxSwitches:   ctx,
	}
}

// RunBurstSweep sweeps the frame-burst size on a video workload: larger
// bursts buy fewer interrupts (CPU sleep) at no QoS cost for playback —
// until the driver queue depth caps them (§4.3).
func RunBurstSweep(dur sim.Time) (*Sweep, error) {
	s := &Sweep{Title: "Ablation: frame-burst size, W1 under VIP (paper uses 5)"}
	bursts := []int{1, 2, 3, 5, 7}
	reps, err := runCustomAll(len(bursts), []string{"A5", "A5"}, dur, nil,
		func(i int, o *core.Options) { o.BurstSize = bursts[i] })
	if err != nil {
		return nil, err
	}
	for i, b := range bursts {
		s.Rows = append(s.Rows, sweepRow(fmt.Sprintf("%d", b), float64(b), reps[i]))
	}
	return s, nil
}

// RunLaneSweep sweeps the virtual-lane count on the 3-app workload W2:
// with fewer lanes than concurrent flows, chains share lanes and
// head-of-line blocking returns (§5.5 supports up to 4 lanes).
func RunLaneSweep(dur sim.Time) (*Sweep, error) {
	s := &Sweep{Title: "Ablation: VIP lanes per IP, W2 (3 video apps; paper supports up to 4)"}
	laneCounts := []int{1, 2, 3, 4}
	reps, err := runCustomAll(len(laneCounts), []string{"A5", "A7", "A7"}, dur,
		func(i int, c *platform.Config) { c.VIPLanes = laneCounts[i] }, nil)
	if err != nil {
		return nil, err
	}
	for i, lanes := range laneCounts {
		s.Rows = append(s.Rows, sweepRow(fmt.Sprintf("%d", lanes), float64(lanes), reps[i]))
	}
	return s, nil
}

// RunPatienceSweep sweeps the EDF switch patience on W1: at zero the
// scheduler thrashes the 2us context switch on every transient buffer
// block; a few microseconds restores throughput.
func RunPatienceSweep(dur sim.Time) (*Sweep, error) {
	s := &Sweep{Title: "Ablation: EDF switch patience, W1 under VIP"}
	patiences := []int{0, 1, 2, 5, 10, 20}
	reps, err := runCustomAll(len(patiences), []string{"A5", "A5"}, dur,
		func(i int, c *platform.Config) { c.SwitchPatience = sim.Time(patiences[i]) * sim.Microsecond }, nil)
	if err != nil {
		return nil, err
	}
	for i, us := range patiences {
		s.Rows = append(s.Rows, sweepRow(fmt.Sprintf("%dus", us), float64(us), reps[i]))
	}
	return s, nil
}

// RunCtxCostSweep sweeps the lane context-switch penalty on W1.
func RunCtxCostSweep(dur sim.Time) (*Sweep, error) {
	s := &Sweep{Title: "Ablation: lane context-switch cost, W1 under VIP (paper assumes 'a handful of registers')"}
	costs := []int{0, 1, 2, 5, 10}
	reps, err := runCustomAll(len(costs), []string{"A5", "A5"}, dur,
		func(i int, c *platform.Config) { c.CtxSwitch = sim.Time(costs[i]) * sim.Microsecond }, nil)
	if err != nil {
		return nil, err
	}
	for i, us := range costs {
		s.Rows = append(s.Rows, sweepRow(fmt.Sprintf("%dus", us), float64(us), reps[i]))
	}
	return s, nil
}

// RunSubframeSweep sweeps the sub-frame granularity (§5.5 uses 1 KB):
// finer sub-frames react faster but pay more per-transfer overhead.
func RunSubframeSweep(dur sim.Time) (*Sweep, error) {
	s := &Sweep{Title: "Ablation: sub-frame granularity, W1 under VIP (paper uses 1KB)"}
	kbs := []int{1, 2, 4, 8}
	reps, err := runCustomAll(len(kbs), []string{"A5", "A5"}, dur,
		func(i int, c *platform.Config) {
			c.SubframeBytes = kbs[i] << 10
			if c.LaneBufBytes < 2*c.SubframeBytes {
				c.LaneBufBytes = 2 * c.SubframeBytes
			}
		}, nil)
	if err != nil {
		return nil, err
	}
	for i, kb := range kbs {
		s.Rows = append(s.Rows, sweepRow(fmt.Sprintf("%dKB", kb), float64(kb), reps[i]))
	}
	return s, nil
}
