// Command vipfig regenerates the paper's tables and figures.
//
// Usage:
//
//	vipfig -exp fig15           # one experiment
//	vipfig -exp all             # everything (several minutes)
//	vipfig -exp fig3 -duration 300ms
//	vipfig -exp all -jobs 4     # cap the parallel run executor at 4 workers
//	vipfig -exp all -cache /tmp/vip-results   # skip cells an earlier vipfig run simulated
//
// Independent simulation runs inside each experiment fan out across
// CPU cores (-jobs, default GOMAXPROCS); output is byte-identical to
// -jobs 1 because results are slotted back in run order.
//
// Experiments: table1 table2 table3 fig2 fig3 fig5 fig6 fig14 fig15
// fig16 fig17 fig18 (figNNa/b aliases accepted), "all" for all of the
// paper's artifacts, the ablation studies: sched, burst, lanes,
// patience, ctxcost, subframe, ablation (= all six), or "fault" — the
// fault-injection robustness sweep (rate x scheme, recovery on/off).
//
// -seed drives only the Fig. 5/6 touch-model draws: every simulated
// experiment runs at seed 1. -cache reuses cells of earlier vipfig runs
// only. vipfig keys a cell by its experiments.Config/v2 encoding and
// vipserve by the vip.Scenario/v1 encoding, so the two never reuse each
// other's results, and can share a directory without colliding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/vipsim/vip/internal/cache"
	"github.com/vipsim/vip/internal/experiments"
	"github.com/vipsim/vip/internal/parallel"
	"github.com/vipsim/vip/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1..3, fig2..fig18, all)")
	duration := flag.Duration("duration", 400*time.Millisecond, "simulated duration per run")
	seed := flag.Uint64("seed", 1, "seed of the Fig. 5/6 touch-model draws (every simulated experiment runs at seed 1)")
	jsonOut := flag.String("json", "", "also write every experiment's data as machine-readable JSON to this file")
	jobs := flag.Int("jobs", 0, "parallel workers for independent simulation runs (0 = GOMAXPROCS, 1 = serial)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory; cells an earlier vipfig run simulated are reused instead of re-run (vipserve keys its results differently, so it can share the directory without colliding, but neither reuses the other's)")
	flag.Parse()

	parallel.SetJobs(*jobs)
	if *cacheDir != "" {
		experiments.SetCache(cache.New(4096, *cacheDir))
	}

	dur := sim.Time(duration.Nanoseconds())
	id := strings.ToLower(strings.TrimSpace(*exp))
	// figNNa / figNNb select the same experiment as figNN.
	id = strings.TrimSuffix(strings.TrimSuffix(id, "a"), "b")

	if err := run(id, dur, *seed, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "vipfig:", err)
		os.Exit(1)
	}
}

// writeArtifacts dumps the structured results of every section to path:
// figure/sweep structs marshal field by field, tables as rendered text.
func writeArtifacts(path string, artifacts map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	err = enc.Encode(artifacts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func run(id string, dur sim.Time, seed uint64, jsonOut string) error {
	out := os.Stdout
	artifacts := make(map[string]any)
	var sweep *experiments.ModeSweep
	needSweep := func() error {
		if sweep != nil {
			return nil
		}
		fmt.Fprintln(out, "(running the 5-design x 15-scenario sweep...)")
		var err error
		sweep, err = experiments.RunModeSweep(dur)
		return err
	}

	sections := []string{id}
	if id == "all" {
		sections = []string{"table1", "table2", "table3", "fig2", "fig3", "fig5",
			"fig6", "fig14", "fig15", "fig16", "fig17", "fig18"}
	}
	if id == "ablation" {
		sections = []string{"sched", "burst", "lanes", "patience", "ctxcost", "subframe"}
	}
	for i, sec := range sections {
		if i > 0 {
			fmt.Fprintln(out)
		}
		switch sec {
		case "table1":
			var b strings.Builder
			experiments.WriteTable1(io.MultiWriter(out, &b))
			artifacts[sec] = b.String()
		case "table2":
			var b strings.Builder
			experiments.WriteTable2(io.MultiWriter(out, &b))
			artifacts[sec] = b.String()
		case "table3":
			var b strings.Builder
			experiments.WriteTable3(io.MultiWriter(out, &b))
			artifacts[sec] = b.String()
		case "fig2":
			f, err := experiments.RunFig02(dur)
			if err != nil {
				return err
			}
			f.Write(out)
			artifacts[sec] = f
		case "fig3":
			f, err := experiments.RunFig03(dur)
			if err != nil {
				return err
			}
			f.Write(out)
			artifacts[sec] = f
		case "fig5":
			f := experiments.RunFig05(0, seed)
			f.Write(out)
			artifacts[sec] = f
		case "fig6":
			f := experiments.RunFig06(0, seed)
			f.Write(out)
			artifacts[sec] = f
		case "fig14":
			f, err := experiments.RunFig14(dur)
			if err != nil {
				return err
			}
			f.Write(out)
			artifacts[sec] = f
		case "fig15", "fig16", "fig17", "fig18":
			if err := needSweep(); err != nil {
				return err
			}
			switch sec {
			case "fig15":
				sweep.WriteFig15(out)
			case "fig16":
				sweep.WriteFig16(out)
			case "fig17":
				sweep.WriteFig17(out)
			case "fig18":
				sweep.WriteFig18(out)
			}
			artifacts["sweep"] = sweep
		case "sched":
			st, err := experiments.RunSchedulerStudy("W1", dur)
			if err != nil {
				return err
			}
			st.Write(out)
			artifacts[sec] = st
		case "burst":
			sw, err := experiments.RunBurstSweep(dur)
			if err != nil {
				return err
			}
			sw.Write(out)
			artifacts[sec] = sw
		case "lanes":
			sw, err := experiments.RunLaneSweep(dur)
			if err != nil {
				return err
			}
			sw.Write(out)
			artifacts[sec] = sw
		case "patience":
			sw, err := experiments.RunPatienceSweep(dur)
			if err != nil {
				return err
			}
			sw.Write(out)
			artifacts[sec] = sw
		case "ctxcost":
			sw, err := experiments.RunCtxCostSweep(dur)
			if err != nil {
				return err
			}
			sw.Write(out)
			artifacts[sec] = sw
		case "subframe":
			sw, err := experiments.RunSubframeSweep(dur)
			if err != nil {
				return err
			}
			sw.Write(out)
			artifacts[sec] = sw
		case "fault":
			sw, err := experiments.RunFaultSweep(dur)
			if err != nil {
				return err
			}
			sw.Write(out)
			artifacts[sec] = sw
		default:
			return fmt.Errorf("unknown experiment %q", sec)
		}
	}
	if jsonOut != "" {
		if err := writeArtifacts(jsonOut, artifacts); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "vipfig: wrote %s (%d sections)\n", jsonOut, len(artifacts))
	}
	return nil
}
