// Command viptrace runs a short scenario with timeline tracing enabled
// and exports what every IP, CPU core and flow was doing, when — as a
// Chrome/Perfetto trace (-o trace.json) and an ASCII timeline on stdout.
//
// Usage:
//
//	viptrace -system vip -apps A5,A5 -duration 60ms -o trace.json
//	viptrace -system iptoipburst -apps W1       # watch the HOL blocking
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/core"
	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/telemetry"
	"github.com/vipsim/vip/internal/workload"
	"github.com/vipsim/vip/vip"
)

func main() {
	system := flag.String("system", "vip", "system design to trace: baseline|frameburst|iptoip|iptoipburst|vip")
	apps := flag.String("apps", "A5", "comma-separated app ids (A1..A7) or workload ids (W1..W8)")
	duration := flag.Duration("duration", 60*time.Millisecond, "simulated duration (keep short: traces are dense)")
	out := flag.String("o", "", "write a Chrome/Perfetto trace JSON to this file")
	metricsOut := flag.String("metrics-out", "", "write sampled metric time series as JSON to this file")
	metricsInterval := flag.Duration("metrics-interval", time.Millisecond, "simulated sampling period for -metrics-out")
	flag.Parse()

	mode, err := vip.ParseSystem(*system)
	if err != nil {
		fatal(err)
	}
	ids := strings.Split(*apps, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	ids, err = workload.Expand(ids)
	if err != nil {
		fatal(err)
	}
	specs := make([]app.Spec, len(ids))
	for i, id := range ids {
		if specs[i], err = workload.App(id); err != nil {
			fatal(err)
		}
	}

	rec := telemetry.NewPhaseRecorder()
	pcfg := platform.DefaultConfig(mode)
	pcfg.Spans = rec
	if *metricsOut != "" {
		pcfg.Metrics = metrics.NewRegistry()
	}
	p := platform.New(pcfg)
	opts := core.DefaultOptions(mode)
	opts.Duration = sim.Time(duration.Nanoseconds())
	if *metricsOut != "" {
		opts.MetricsInterval = sim.Time(metricsInterval.Nanoseconds())
	}
	r, err := core.NewRunner(p, specs, opts)
	if err != nil {
		fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		fatal(err)
	}

	fmt.Print(rec.PhaseSummary())
	fmt.Println()
	per := opts.Duration / 160
	if per < sim.Microsecond {
		per = sim.Microsecond
	}
	rec.WritePhaseTimeline(os.Stdout, 0, opts.Duration, per)
	fmt.Println()
	fmt.Printf("(c=compute, m=memstall, f=flowstall; flows: frame spans)\n\n")
	fmt.Print(rep)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := rec.WritePhaseChrome(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s (%d events) — open in ui.perfetto.dev\n", *out, rec.PhaseLen())
	}

	if *metricsOut != "" {
		s := r.Sampler()
		if s == nil {
			fatal(fmt.Errorf("metrics sampler did not run (is -metrics-interval positive?)"))
		}
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := s.TimeSeries().WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d metrics x %d samples)\n",
			*metricsOut, len(s.TimeSeries().Names()), s.Samples())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "viptrace:", err)
	os.Exit(1)
}
