package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/core"
	"github.com/vipsim/vip/internal/experiments"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	catalog "github.com/vipsim/vip/internal/workload"
	"github.com/vipsim/vip/vip"
)

// fourA5 is the SimulatorThroughput scenario: four A5 video players.
var fourA5 = []string{"A5", "A5", "A5", "A5"}

func specsOf(ids []string) ([]app.Spec, error) {
	specs := make([]app.Spec, 0, len(ids))
	for _, id := range ids {
		a, err := catalog.App(id)
		if err != nil {
			return nil, err
		}
		specs = append(specs, a)
	}
	return specs, nil
}

// assembled is one simulation set up and ready to run. Every op builds a
// fresh one, so simulated state (DRAM rows, flow buffers, queues) starts
// empty each time.
type assembled struct {
	p *platform.Platform
	r *core.Runner
}

// assemble is the set-up of one run with the paper's default
// configuration, built the way experiments.Run and vip.Simulate build
// it. It records the platform.New and core.NewRunner spans under parent.
func assemble(mode platform.Mode, specs []app.Spec, dur sim.Time, seed uint64, tr *tracer, trace, parent uint64) (assembled, error) {
	t0 := now()
	p := platform.New(platform.DefaultConfig(mode))
	t1 := now()
	opts := core.DefaultOptions(mode)
	opts.Duration = dur
	opts.Seed = seed
	r, err := core.NewRunner(p, specs, opts)
	t2 := now()
	tr.child(trace, parent, "platform.New", t0, t1)
	tr.child(trace, parent, "core.NewRunner", t1, t2)
	return assembled{p, r}, err
}

// simCounts is the simulated work of a run. It depends only on the
// scenario and seed, so it must repeat exactly.
type simCounts struct {
	Events, DRAMRequests, NoCTransfers, NoCSignals uint64
	IPJobs, IPCtxSwitches, CPUTasks, CPUInterrupts uint64
}

func countsOf(p *platform.Platform, rep *core.Report) simCounts {
	noc := p.SA.Stats()
	c := simCounts{
		Events: rep.Sim.EventsFired, DRAMRequests: rep.Mem.Requests,
		NoCTransfers: noc.Transfers, NoCSignals: noc.Signals,
		CPUTasks: rep.CPU.Tasks, CPUInterrupts: rep.CPU.Interrupts,
	}
	for _, ip := range rep.IPs {
		c.IPJobs += ip.Stats.Frames
		c.IPCtxSwitches += ip.Stats.CtxSwitch
	}
	return c
}

func (c *simCounts) add(d simCounts) {
	c.Events += d.Events
	c.DRAMRequests += d.DRAMRequests
	c.NoCTransfers += d.NoCTransfers
	c.NoCSignals += d.NoCSignals
	c.IPJobs += d.IPJobs
	c.IPCtxSwitches += d.IPCtxSwitches
	c.CPUTasks += d.CPUTasks
	c.CPUInterrupts += d.CPUInterrupts
}

func (c simCounts) put(layer map[string]float64) {
	layer["sim.events"] = float64(c.Events)
	layer["dram.requests"] = float64(c.DRAMRequests)
	layer["noc.transfers"] = float64(c.NoCTransfers)
	layer["noc.signals"] = float64(c.NoCSignals)
	layer["ipcore.jobs"] = float64(c.IPJobs)
	layer["ipcore.ctx_switches"] = float64(c.IPCtxSwitches)
	layer["cpu.tasks"] = float64(c.CPUTasks)
	layer["cpu.interrupts"] = float64(c.CPUInterrupts)
}

// memSnap is the slice of runtime.MemStats the benchmark reports.
type memSnap struct {
	alloc, mallocs, gcs, pauseNS uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, m.Mallocs, uint64(m.NumGC), m.PauseTotalNs}
}

func (a memSnap) since(b memSnap) memSnap {
	return memSnap{a.alloc - b.alloc, a.mallocs - b.mallocs, a.gcs - b.gcs, a.pauseNS - b.pauseNS}
}

// putAlloc records the allocations made while events events were
// simulated.
func putAlloc(layer map[string]float64, m memSnap, events uint64) {
	if events > 0 {
		layer["alloc.per_event"] = float64(m.mallocs) / float64(events)
		layer["alloc.bytes_per_event"] = float64(m.alloc) / float64(events)
	}
}

// putGC records the collector's work per op over ops ops.
func putGC(layer map[string]float64, m memSnap, ops int) {
	layer["gc.cycles"] = float64(m.gcs) / float64(ops)
	layer["gc.pause_ms"] = float64(m.pauseNS) / 1e6 / float64(ops)
}

// setupReps is how many times a single run's set-up is repeated for its
// median: one takes tens of microseconds, so one sample is noise.
const setupReps = 200

// singleRun is the body of baseline-dram and vip-chain: four A5 players
// on one system design, one serial run per op in a closed loop. An op is
// Runner.Run plus Report.WriteJSON on a freshly assembled platform.
func singleRun(name string, mode platform.Mode, sys vip.System) workload {
	return workload{name, func(p params, o options, tr *tracer) (*outcome, error) {
		out := newOutcome()
		cal := newKernel(p.calibIters)
		specs, err := specsOf(fourA5)
		if err != nil {
			return nil, err
		}
		err = out.timeSetup(cal, setupReps, func() (time.Duration, error) {
			t0 := now()
			_, err := assemble(mode, specs, p.runDur, o.seed, nil, 0, 0)
			return now().Sub(t0), err
		})
		if err != nil {
			return nil, err
		}

		// The warm-up op is the reference: the same scenario through the
		// public facade, untimed.
		ref, err := simulateBytes(vip.Scenario{System: sys, Apps: fourA5, Duration: p.runDur, Seed: o.seed})
		if err != nil {
			return nil, err
		}
		refDigest := digest(ref)
		out.pin(o.golden, goldenKey(name, p.runDur, strconv.FormatUint(o.seed, 10)), refDigest)

		var first *simCounts
		var buf bytes.Buffer
		m0 := readMem()
		err = out.closedLoop(cal, p, o, func(n int) (time.Duration, error) {
			trace, root := tr.id(), tr.id()
			t0 := now()
			a, err := assemble(mode, specs, p.runDur, o.seed, tr, trace, root)
			if err != nil {
				return 0, err
			}
			t1 := now()
			rep, err := a.r.Run()
			if err != nil {
				return 0, err
			}
			t2 := now()
			buf.Reset()
			werr := rep.WriteJSON(&buf)
			t3 := now()
			tr.child(trace, root, "Runner.Run", t1, t2)
			tr.child(trace, root, "Report.WriteJSON", t2, t3)
			tr.record(trace, root, 0, "run", t0, t3)
			c := countsOf(a.p, rep)
			switch {
			case werr != nil:
				out.fail("op %d: Report.WriteJSON: %v", n, werr)
			case digest(buf.Bytes()) != refDigest:
				out.fail("op %d: report bytes differ from vip.Simulate", n)
			case first != nil && c != *first:
				out.fail("op %d: simulated counts %+v differ from op 1 %+v", n, c, *first)
			}
			if first == nil {
				first = &c
			}
			return t3.Sub(t1), nil
		})
		if err != nil {
			return nil, err
		}
		m := readMem().since(m0)
		out.finish(m)
		first.put(out.layer)
		putAlloc(out.layer, m, first.Events*uint64(out.attempted))
		putGC(out.layer, m, out.attempted)
		if first.Events > 0 {
			out.layer["sim.ns_per_event"] = out.layer["op.raw_ms"] * 1e6 / float64(first.Events)
		}
		return out, nil
	}}
}

// simulateBytes runs a scenario through vip.Simulate and returns the
// report bytes vipserve would serve for it.
func simulateBytes(sc vip.Scenario) ([]byte, error) {
	res, err := vip.Simulate(sc)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteReportJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sweepCell is one (scenario, mode) cell of the fig15 grid.
type sweepCell struct {
	sc    experiments.Scenario
	mode  platform.Mode
	specs []app.Spec
}

func sweepCells() ([]sweepCell, error) {
	var cells []sweepCell
	for _, sc := range experiments.Scenarios() {
		specs, err := specsOf(sc.AppIDs)
		if err != nil {
			return nil, err
		}
		for _, m := range platform.AllModes() {
			cells = append(cells, sweepCell{sc, m, specs})
		}
	}
	return cells, nil
}

// runSweep is fig15-sweep: experiments.RunModeSweep over the 5 designs ×
// 15 scenarios at the paper's fixed seed, one sweep per op in a closed
// loop, on nproc executor workers.
func runSweep(p params, o options, tr *tracer) (*outcome, error) {
	out := newOutcome()
	cal := newKernel(p.calibIters)
	cells, err := sweepCells()
	if err != nil {
		return nil, err
	}
	// Set-up is assembling every cell of the grid, which the sweep does
	// once per cell before any event fires.
	err = out.timeSetup(cal, 10, func() (time.Duration, error) {
		t0 := now()
		for _, c := range cells {
			if _, err := assemble(c.mode, c.specs, p.sweepDur, 1, nil, 0, 0); err != nil {
				return 0, err
			}
		}
		return now().Sub(t0), nil
	})
	if err != nil {
		return nil, err
	}
	last := cells[len(cells)-1]
	if _, err := experiments.Run(experiments.Config{Mode: last.mode, AppIDs: last.sc.AppIDs, Duration: p.sweepDur}); err != nil {
		return nil, err
	}

	var want string
	var sw *experiments.ModeSweep
	m0 := readMem()
	err = out.closedLoop(cal, p, o, func(n int) (time.Duration, error) {
		t0 := now()
		var err error
		if sw, err = experiments.RunModeSweep(p.sweepDur); err != nil {
			return 0, err
		}
		t1 := now()
		tr.record(tr.id(), tr.id(), 0, "experiments.RunModeSweep", t0, t1)
		d, err := sweepDigest(sw)
		switch {
		case err != nil:
			out.fail("sweep %d: %v", n, err)
		case want == "":
			want = d
			out.pin(o.golden, goldenKey("fig15-sweep", p.sweepDur, "paper"), d)
		case d != want:
			out.fail("sweep %d: digest %s differs from sweep 1", n, d)
		}
		return t1.Sub(t0), nil
	})
	if err != nil {
		return nil, err
	}
	m := readMem().since(m0)
	out.finish(m)
	putGC(out.layer, m, out.attempted)
	if tr != nil {
		return out, serialCells(out, cells, sw, p, o, tr)
	}
	return out, nil
}

// serialCells is the traced sweep's extra pass: every cell once, in
// order, on this goroutine, to get each cell's cost and simulated work.
// Each cell must reproduce the sweep's.
func serialCells(out *outcome, cells []sweepCell, sw *experiments.ModeSweep, p params, o options, tr *tracer) error {
	var sum simCounts
	var secs []float64
	nModes := len(platform.AllModes())
	cal := newKernel(p.calibIters)
	c0 := cal.measure()
	m0 := readMem()
	for i, c := range cells {
		trace, root := tr.id(), tr.id()
		t0 := now()
		a, err := assemble(c.mode, c.specs, p.sweepDur, 1, tr, trace, root)
		if err != nil {
			return err
		}
		t1 := now()
		rep, err := a.r.Run()
		if err != nil {
			return err
		}
		t2 := now()
		tr.child(trace, root, "Runner.Run", t1, t2)
		tr.record(trace, root, 0, "cell", t0, t2)
		secs = append(secs, t2.Sub(t0).Seconds())
		sum.add(countsOf(a.p, rep))
		if got, want := cellOf(rep), *sw.Cells[i/nModes][i%nModes]; got != want {
			out.fail("cell %s/%v: %+v differs from the sweep's %+v", c.sc.ID, c.mode, got, want)
		}
	}
	sum.put(out.layer)
	putAlloc(out.layer, readMem().since(m0), sum.Events)
	var total float64
	for _, s := range secs {
		total += s
	}
	s := summarize(secs)
	out.layer["sim.ns_per_event"] = total * 1e9 / float64(sum.Events)
	out.layer["experiments.cell_p50_s"] = s.P50
	out.layer["experiments.cell_max_s"] = sorted(secs)[len(secs)-1]
	out.layer["experiments.cell_sum_s"] = total
	// The serial pass and the sweeps ran at different moments, so the two
	// are compared at the reference host speed.
	work := total * scale((c0+cal.measure())/2)
	sweepS := out.e2e["op_ms"] / 1e3
	out.layer["parallel.busy_pct"] = 100 * work / (sweepS * float64(o.nproc))
	out.layer["parallel.tail_s"] = sweepS - work/float64(o.nproc)
	return nil
}

// cellOf is the fig15 cell experiments.RunModeSweep builds from a report.
func cellOf(rep *core.Report) experiments.Cell {
	return experiments.Cell{
		EnergyPerFrameJ: rep.EnergyPerFrameJ,
		CPUEnergyJ:      rep.CPUEnergyJ,
		Instructions:    rep.CPU.Instructions,
		Interrupts:      rep.CPU.Interrupts,
		InterruptsP100:  rep.InterruptsPer100ms,
		AvgFlowTime:     rep.AvgFlowTime,
		ViolationRate:   rep.ViolationRate,
		DisplayedFrames: rep.DisplayedFrames,
		OfferedFrames:   rep.OfferedFrames,
	}
}

// sweepDigest hashes the 75 cells and the AVG rows of Figures 15, 17
// and 18.
func sweepDigest(sw *experiments.ModeSweep) (string, error) {
	_, energy := sw.NormalizedEnergy()
	_, flow := sw.NormalizedFlowTime()
	_, viol := sw.NormalizedViolations()
	b, err := json.Marshal(struct {
		Cells                      [][]*experiments.Cell
		Energy, FlowTime, Violates []float64
	}{sw.Cells, energy, flow, viol})
	if err != nil {
		return "", fmt.Errorf("encoding sweep: %w", err)
	}
	return digest(b), nil
}
