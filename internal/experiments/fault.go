package experiments

import (
	"fmt"
	"io"

	"github.com/vipsim/vip/internal/parallel"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
)

// FaultPoint is one (scheme, fault rate, recovery arm) cell of the fault
// sweep: QoS outcome plus the CPU work the recovery machinery itself
// cost (visible as extra instructions, interrupts and CPU energy over
// the fault-free row).
type FaultPoint struct {
	Rate          float64
	Injected      uint64
	Completed     int
	Offered       int
	LostFrames    int // offered - completed: dropped, failed or expired
	ViolationRate float64
	FrameRetries  int
	FramesFailed  int
	Quarantines   uint64
	Instructions  uint64
	Interrupts    uint64
	CPUEnergyMJ   float64
}

// FaultArm is one recovery arm of one scheme across the swept rates.
type FaultArm struct {
	Scheme   string
	Recovery bool
	Points   []FaultPoint
}

// FaultSweep is the fault-injection study: QoS degradation and recovery
// cost as the fault rate grows, for the baseline and VIP designs, with
// the recovery stack on and (as a control) off.
type FaultSweep struct {
	Rates []float64
	Arms  []FaultArm
}

// faultRates is the swept base rate: the lane-hang probability per
// compute chunk (1 KB sub-frame); the rest of the mix scales with it,
// see fault.Uniform.
var faultRates = []float64{0, 2e-5, 1e-4, 5e-4, 2e-3}

// RunFaultSweep executes the sweep on a single video player (A5). The
// (arm x rate) grid fans out on the parallel executor; points are
// slotted back into their arm rows by index.
func RunFaultSweep(dur sim.Time) (*FaultSweep, error) {
	f := &FaultSweep{Rates: faultRates}
	arms := []struct {
		mode     platform.Mode
		recovery bool
	}{
		{platform.Baseline, true},
		{platform.VIP, true},
		{platform.VIP, false},
	}
	points, err := parallel.Map(len(arms)*len(f.Rates), func(i int) (FaultPoint, error) {
		arm := arms[i/len(f.Rates)]
		return runFaultPoint(arm.mode, f.Rates[i%len(f.Rates)], arm.recovery, dur)
	})
	if err != nil {
		return nil, err
	}
	for ai, arm := range arms {
		f.Arms = append(f.Arms, FaultArm{
			Scheme:   arm.mode.String(),
			Recovery: arm.recovery,
			Points:   points[ai*len(f.Rates) : (ai+1)*len(f.Rates)],
		})
	}
	return f, nil
}

func runFaultPoint(mode platform.Mode, rate float64, recovery bool, dur sim.Time) (FaultPoint, error) {
	rep, err := Run(Config{
		Mode:      mode,
		AppIDs:    []string{"A5"},
		Duration:  dur,
		FaultRate: rate,
		Recovery:  recovery,
	})
	if err != nil {
		return FaultPoint{}, err
	}
	pt := FaultPoint{
		Rate:          rate,
		Completed:     rep.DisplayedFrames,
		Offered:       rep.OfferedFrames,
		LostFrames:    rep.OfferedFrames - rep.DisplayedFrames,
		ViolationRate: rep.ViolationRate,
		Instructions:  rep.CPU.Instructions,
		Interrupts:    rep.CPU.Interrupts,
		CPUEnergyMJ:   rep.CPUEnergyJ * 1e3,
	}
	if fr := rep.Faults; fr != nil {
		pt.Injected = fr.Injected.Total()
		pt.FrameRetries = fr.FrameRetries
		pt.FramesFailed = fr.FramesFailed
		pt.Quarantines = fr.Quarantines
	}
	return pt, nil
}

// Write prints one block per arm.
func (f *FaultSweep) Write(w io.Writer) {
	fmt.Fprintln(w, "Fault sweep: QoS and recovery cost vs. injected fault rate (app A5)")
	for _, a := range f.Arms {
		rec := "recovery on"
		if !a.Recovery {
			rec = "recovery OFF"
		}
		fmt.Fprintf(w, "\n%s, %s:\n", a.Scheme, rec)
		fmt.Fprintf(w, "  %-10s%10s%10s%8s%8s%10s%8s%8s%14s%10s%12s\n",
			"rate", "injected", "frames", "lost", "viol%",
			"retries", "failed", "quar", "instr", "intr", "cpu (mJ)")
		for _, p := range a.Points {
			fmt.Fprintf(w, "  %-10.0e%10d%7d/%-3d%7d%8.1f%10d%8d%8d%14d%10d%12.2f\n",
				p.Rate, p.Injected, p.Completed, p.Offered, p.LostFrames,
				p.ViolationRate*100, p.FrameRetries, p.FramesFailed, p.Quarantines,
				p.Instructions, p.Interrupts, p.CPUEnergyMJ)
		}
	}
}
