// Command vipsim runs one simulation scenario and prints its report.
//
// Usage:
//
//	vipsim -system vip -apps A5,A5 -duration 400ms
//	vipsim -system baseline -apps W4
//	vipsim -compare -apps W1          # all five designs side by side
//
// Observability (see the README's Observability section):
//
//	vipsim -system vip -apps A5,A5 -metrics-out ts.json -report-json report.json
//	vipsim -system vip -apps A5,A5 -trace-spans spans.jsonl -trace-spans-chrome spans.json
//	vipsim -system vip -apps W1 -duration 10s -metrics-addr :9090
//	curl -N localhost:9090/stream        # live SSE metric snapshots mid-run
//
// Fault injection (see the README's Fault injection & recovery section):
//
//	vipsim -system vip -apps A5 -fault-rate 1e-4
//	vipsim -system vip -apps A5 -fault-rate 1e-4 -fault-no-recovery
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/vip"
)

func main() {
	system := flag.String("system", "vip", "system design: baseline|frameburst|iptoip|iptoipburst|vip")
	apps := flag.String("apps", "A5", "comma-separated app ids (A1..A7) or workload ids (W1..W8)")
	duration := flag.Duration("duration", 400*time.Millisecond, "simulated duration")
	burst := flag.Int("burst", 0, "frame-burst size override (0 = default 5)")
	seed := flag.Uint64("seed", 0, "random seed override")
	ideal := flag.Bool("ideal-memory", false, "use a zero-latency memory")
	lane := flag.Int("lane-buffer", 0, "per-lane flow buffer bytes override")
	compare := flag.Bool("compare", false, "run all five designs and print one line each")
	metricsOut := flag.String("metrics-out", "", "write sampled metric time series as JSON to this file")
	metricsCSV := flag.String("metrics-csv", "", "write sampled metric time series as CSV to this file")
	metricsInterval := flag.Duration("metrics-interval", time.Millisecond, "simulated sampling period for the metrics time series")
	reportJSON := flag.String("report-json", "", "write the full machine-readable report as JSON to this file")
	traceSpans := flag.String("trace-spans", "", "write the causal frame-lifecycle span log as JSON Lines to this file (byte-identical across same-seed runs)")
	traceSpansChrome := flag.String("trace-spans-chrome", "", "write the span log as a Chrome/Perfetto trace JSON file (open in ui.perfetto.dev)")
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics (Prometheus), /healthz and /stream (SSE snapshots) on this address during the run, e.g. :9090")
	faultRate := flag.Float64("fault-rate", 0, "base fault-injection rate: the lane-hang probability per compute chunk (1 KB sub-frame); scales the whole mix")
	faultSeed := flag.Uint64("fault-seed", 0, "fault stream seed override (0 = derive from -seed)")
	faultNoRecovery := flag.Bool("fault-no-recovery", false, "inject faults with watchdogs/retries/quarantine disabled (control arm)")
	flag.Parse()

	ids := strings.Split(*apps, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	base := vip.Scenario{
		Apps:            ids,
		Duration:        vip.Duration(duration.Nanoseconds()),
		BurstSize:       *burst,
		Seed:            *seed,
		IdealMemory:     *ideal,
		LaneBufferBytes: *lane,
	}
	if *compare && (*reportJSON != "" || *metricsOut != "" || *metricsCSV != "" || *traceSpans != "" || *traceSpansChrome != "") {
		fmt.Fprintln(os.Stderr, "vipsim: -compare prints a table only; it cannot write -report-json, -metrics-out, -metrics-csv, -trace-spans or -trace-spans-chrome")
		os.Exit(2)
	}
	if *faultRate < 0 {
		fmt.Fprintln(os.Stderr, "vipsim: -fault-rate must be non-negative")
		os.Exit(2)
	}
	if *faultRate > 0 {
		base.Faults = &vip.Faults{Rate: *faultRate, Seed: *faultSeed, DisableRecovery: *faultNoRecovery}
	}
	base.TraceSpans = *traceSpans != "" || *traceSpansChrome != ""
	// Any observability output enables the metrics layer.
	if *metricsOut != "" || *metricsCSV != "" || *reportJSON != "" || *metricsAddr != "" {
		base.MetricsInterval = vip.Duration(metricsInterval.Nanoseconds())
		if base.MetricsInterval <= 0 {
			fmt.Fprintln(os.Stderr, "vipsim: -metrics-interval must be positive")
			os.Exit(2)
		}
	}
	if *metricsAddr != "" {
		srv := metrics.NewHTTPServer()
		bound, err := srv.Start(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vipsim:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "vipsim: serving /metrics, /healthz and /stream on http://%s\n", bound)
		base.OnMetricsSnapshot = srv.Publish
	}

	if *compare {
		fmt.Printf("%-14s%14s%12s%12s%12s%10s\n",
			"system", "energy/frame", "flow(ms)", "viol%", "intr/100ms", "frames")
		for _, s := range vip.Systems() {
			sc := base
			sc.System = s
			res, err := vip.Simulate(sc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vipsim:", err)
				os.Exit(1)
			}
			fmt.Printf("%-14v%12.3fmJ%12.2f%12.1f%12.1f%10d\n",
				s, res.EnergyPerFrameJ*1e3, res.AvgFlowTimeMS,
				res.ViolationRate*100, res.InterruptsPer100ms, res.DisplayedFrames)
		}
		return
	}

	sys, err := vip.ParseSystem(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vipsim:", err)
		os.Exit(2)
	}
	sc := base
	sc.System = sys
	res, err := vip.Simulate(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vipsim:", err)
		os.Exit(1)
	}
	fmt.Print(res.Summary())

	writeFile := func(path string, write func(io.Writer) error) {
		f, err := os.Create(path)
		if err == nil {
			err = write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vipsim:", err)
			os.Exit(1)
		}
	}
	if *metricsOut != "" {
		writeFile(*metricsOut, res.WriteTimeSeriesJSON)
		fmt.Fprintf(os.Stderr, "vipsim: wrote %s (%d metrics x %d samples)\n",
			*metricsOut, len(res.MetricNames()), res.MetricSamples())
	}
	if *metricsCSV != "" {
		writeFile(*metricsCSV, res.WriteTimeSeriesCSV)
	}
	if *reportJSON != "" {
		writeFile(*reportJSON, res.WriteReportJSON)
	}
	if *traceSpans != "" {
		writeFile(*traceSpans, res.WriteSpanJSONL)
		fmt.Fprintf(os.Stderr, "vipsim: wrote %s (%d spans)\n", *traceSpans, len(res.Spans()))
	}
	if *traceSpansChrome != "" {
		writeFile(*traceSpansChrome, res.WriteSpanChrome)
	}
}
