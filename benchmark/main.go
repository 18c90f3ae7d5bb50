// Command vipbench is the repository's end-to-end benchmark. It times
// the simulator from outside, through the public entry points of each
// layer, on four workloads:
//
//   - fig15-sweep: experiments.RunModeSweep, the Figures 15-18 grid;
//   - baseline-dram: one serial Baseline run of four A5 players, where
//     per-frame DRAM staging is the hot path;
//   - vip-chain: the same players under VIP, where IP-to-IP flow
//     buffers, lanes and NoC signals carry the work;
//   - serve-mix: an in-process vipserve under open-loop Poisson load.
//
// Every op is checked: reports against vip.Simulate and the digests
// pinned in golden.json, simulated counts against the first op. Usage,
// from the repository root:
//
//	bash benchmark/run.sh --workload vip-chain --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 1 each workload
// is measured twice, untraced and then with spans and a CPU profile, and
// the per-layer metrics are reported instead of the end-to-end ones; the
// spans, the profile and layers.json go under -trace-dir. Nothing runs
// unless BENCHMARK.json in the working directory lists exactly the
// workloads and metrics the command reports. See README.md for the
// metric catalog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/vipsim/vip/internal/parallel"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/vip"
)

// now is the benchmark's one wall-clock read point.
func now() time.Time {
	return time.Now() //viplint:allow simdeterminism -- the benchmark measures host time
}

// sleepUntil blocks until t, the open-loop generator's pacing.
func sleepUntil(t time.Time) {
	if d := t.Sub(now()); d > 0 {
		time.Sleep(d) //viplint:allow simdeterminism -- open-loop request pacing on host time
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// params size the workloads' work; tests shrink them.
type params struct {
	sweepDur sim.Time // simulated time of each fig15 cell
	runDur   sim.Time // simulated time of a baseline-dram or vip-chain run
	keyDur   sim.Time // simulated time of each serve-mix key
	rate     float64  // serve-mix arrivals per second
	minOps   int      // closed-loop ops per pass, however long they take
	// calibIters is the calibration kernel's work; calibRef is its time
	// at the default.
	calibIters int
}

// defaults: the sweep runs at 50 ms so several sweeps fit in one
// measurement window. vipfig runs it at 400 ms, so the sweep is a
// short-run proxy for the figure run: README.md records how the two
// differ.
var defaults = params{
	sweepDur: 50 * sim.Millisecond,
	runDur:   200 * sim.Millisecond,
	keyDur:   40 * sim.Millisecond,
	rate:     12,
	minOps:   3,

	calibIters: 60_000,
}

// options are the run's settings from the command line and the host.
type options struct {
	seed    uint64
	seconds time.Duration
	nproc   int
	golden  golden // the pinned digests
}

type runFunc func(params, options, *tracer) (*outcome, error)

type workload struct {
	name string
	run  runFunc
}

var workloads = []workload{
	{"fig15-sweep", runSweep},
	singleRun("baseline-dram", platform.Baseline, vip.SystemBaseline),
	singleRun("vip-chain", platform.VIP, vip.SystemVIP),
	{"serve-mix", runServe},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload's untraced run: the median
// set-up and op times, normalized to the reference host speed (calib.go;
// serve-mix latency stays raw), and the megabytes allocated per op.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"alloc_mb", "MB/op"},
}

// layerMetrics are reported by every workload's traced run. A workload
// reports 0 for a layer it does not exercise or cannot observe.
var layerMetrics = append([]metricDef{
	{"op.raw_ms", "ms"},
	{"setup.raw_s", "s"},
	{"host.calib_ms", "ms"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"dram.requests", "count"},
	{"noc.transfers", "count"},
	{"noc.signals", "count"},
	{"ipcore.jobs", "count"},
	{"ipcore.ctx_switches", "count"},
	{"cpu.tasks", "count"},
	{"cpu.interrupts", "count"},
	{"platform.new_ms", "ms"},
	{"core.new_runner_ms", "ms"},
	{"core.report_json_ms", "ms"},
	{"alloc.per_event", "allocs"},
	{"alloc.bytes_per_event", "B"},
	{"gc.cycles", "count/op"},
	{"gc.pause_ms", "ms/op"},
	{"experiments.cell_p50_s", "s"},
	{"experiments.cell_max_s", "s"},
	{"experiments.cell_sum_s", "s"},
	{"parallel.busy_pct", "%"},
	{"parallel.tail_s", "s"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p90_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p90_ms", "ms"},
	{"serve.slo_pct", "%"},
	{"serve.admit_p50_ms", "ms"},
	{"cache.lookup_p50_ms", "ms"},
	{"serve.overhead_p50_ms", "ms"},
	{"pool.queue_p50_ms", "ms"},
	{"pool.queue_p90_ms", "ms"},
	{"serve.simulate_p50_ms", "ms"},
	{"cache.hit_pct", "%"},
	{"serve.coalesced_pct", "%"},
	{"serve.engine_runs", "count"},
	{"serve.duplicate_runs", "count"},
	{"pool.dispatched", "count"},
	{"pool.deadline_misses", "count"},
	{"gen.lag_p90_ms", "ms"},
	{"trace.overhead_pct", "%"},
}, selfMetrics()...)

// selfMetrics are the CPU-profile buckets as metrics.
func selfMetrics() []metricDef {
	defs := make([]metricDef, len(buckets))
	for i, b := range buckets {
		defs[i] = metricDef{selfName(b), "%"}
	}
	return defs
}

func selfName(bucket string) string {
	if strings.HasPrefix(bucket, "runtime.") {
		return bucket + "_pct"
	}
	return bucket + ".self_pct"
}

// outcome is what one pass over a workload measured.
type outcome struct {
	attempted, failed int
	problems          []string // why ops failed or the run is invalid
	invalid           bool     // the run measured the host, not the program
	samples           map[string][]float64
	timings           map[string]summary
	e2e, layer        map[string]float64
	digests           []string
}

func newOutcome() *outcome {
	return &outcome{
		samples: make(map[string][]float64),
		timings: make(map[string]summary),
		e2e:     make(map[string]float64),
		layer:   make(map[string]float64),
	}
}

func (o *outcome) sample(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

// fail counts one failed op.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// invalidate marks the whole run as not measuring the program.
func (o *outcome) invalidate(format string, args ...any) {
	o.invalid = true
	o.problems = append(o.problems, "invalid run: "+fmt.Sprintf(format, args...))
}

// pin checks a digest against the pinned ones and records it for
// printing; a mismatch is a failed op.
func (o *outcome) pin(g golden, key, got string) {
	status, ok := g.check(key, got)
	o.digests = append(o.digests, fmt.Sprintf("%q: %q  (%s)", key, got, status))
	if !ok {
		o.fail("digest of %s is %s: %s", key, got, status)
	}
}

// setupBatches is how many batches timeSetup splits its repetitions
// into, each between two calibrations. A single run's set-ups take
// about 10 ms in all, short enough for one stall of the host to move
// their median; in batches they sample the host over a second or so.
const setupBatches = 10

// timeSetup times reps set-ups, each reporting its own duration, in
// batches between calibrations, and samples setup_s normalized and
// setup.raw_s.
func (o *outcome) timeSetup(cal *kernel, reps int, setup func() (time.Duration, error)) error {
	before := cal.measure()
	o.sample("host.calib_ms", ms(before))
	for b := range setupBatches {
		raw := make([]float64, 0, reps/setupBatches+1)
		for range reps*(b+1)/setupBatches - reps*b/setupBatches {
			d, err := setup()
			if err != nil {
				return err
			}
			raw = append(raw, d.Seconds())
		}
		after := cal.measure()
		o.sample("host.calib_ms", ms(after))
		k := scale((before + after) / 2)
		for _, v := range raw {
			o.sample("setup.raw_s", v)
			o.sample("setup_s", v*k)
		}
		before = after
	}
	return nil
}

// closedLoop runs op back to back, each between two calibrations, until
// the window has passed and at least minOps ran. op gets its 1-based
// number and returns the time to report; it counts its own failures.
func (o *outcome) closedLoop(cal *kernel, p params, opts options, op func(n int) (time.Duration, error)) error {
	before := cal.measure()
	start := now()
	for o.attempted < p.minOps || now().Sub(start) < opts.seconds {
		o.attempted++
		d, err := op(o.attempted)
		if err != nil {
			return err
		}
		after := cal.measure()
		o.sample("op.raw_ms", ms(d))
		o.sample("op_ms", ms(d)*scale((before+after)/2))
		o.sample("host.calib_ms", ms(after))
		before = after
	}
	return nil
}

// finish reduces the samples: medians of the normalized times are the
// end-to-end metrics, medians of the raw ones per-layer metrics. m is the
// allocation over the timed ops.
func (o *outcome) finish(m memSnap) {
	names := make([]string, 0, len(o.samples))
	for name := range o.samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := summarize(o.samples[name])
		o.timings[name] = s
		switch name {
		case "setup_s", "op_ms":
			o.e2e[name] = s.P50
		case "setup.raw_s", "op.raw_ms", "host.calib_ms":
			o.layer[name] = s.P50
		}
	}
	o.e2e["alloc_mb"] = float64(m.alloc) / 1e6 / float64(o.attempted)
}

// measure runs one workload. Traced, it runs an untraced pass and then a
// traced pass, each over the whole window (a shorter serve-mix stream
// would be a different mix), and reports the traced pass with the spans,
// profile buckets and tracing overhead added.
func measure(w workload, p params, o options, traceDir string) (*outcome, error) {
	if traceDir == "" {
		return w.run(p, o, nil)
	}
	base, err := w.run(p, o, nil)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer()
	prof, err := startProfile(dir)
	if err != nil {
		return nil, err
	}
	out, err := w.run(p, o, tr)
	self, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	out.attempted += base.attempted
	out.failed += base.failed
	out.problems = append(base.problems, out.problems...)
	out.invalid = out.invalid || base.invalid

	total := 0.0
	for _, b := range buckets {
		out.layer[selfName(b)] = self[b]
		total += self[b]
	}
	if total < 99 || total > 101 {
		out.invalidate("profile buckets sum to %.2f%%, not 100%%", total)
	}
	out.layer["trace.overhead_pct"] = 100 * (out.e2e["op_ms"]/base.e2e["op_ms"] - 1)
	spans := selfTimes(tr.spans)
	for _, m := range [][2]string{
		{"platform.New", "platform.new_ms"},
		{"core.NewRunner", "core.new_runner_ms"},
		{"Report.WriteJSON", "core.report_json_ms"},
	} {
		out.layer[m[1]] = spanMedianMS(tr.spans, m[0])
	}
	return out, writeTrace(dir, w.name, o.seed, tr.spans, spans, self, out.layer)
}

func spanMedianMS(spans []span, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/1e6)
		}
	}
	return median(xs)
}

// writeTrace writes spans.jsonl, spans.chrome.json and layers.json.
func writeTrace(dir, name string, seed uint64, spans []span, stats map[string]spanStat, self, layer map[string]float64) error {
	files := []struct {
		name  string
		write func(*os.File) error
	}{
		{"spans.jsonl", func(f *os.File) error { return writeJSONL(f, spans) }},
		{"spans.chrome.json", func(f *os.File) error { return writeChrome(f, spans) }},
		{"layers.json", func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", " ")
			return enc.Encode(map[string]any{
				"workload": name, "seed": seed, "profile": "cpu.pprof",
				"self_pct": self, "spans": stats, "metrics": layer,
			})
		}},
	}
	for _, fl := range files {
		f, err := os.Create(filepath.Join(dir, fl.name))
		if err != nil {
			return err
		}
		werr := fl.write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing %s: %w", fl.name, werr)
		}
	}
	return nil
}

// checkManifest fails unless the BENCHMARK.json at path lists the
// command's workloads and exactly the metrics it reports, in order and
// with their units. The command runs it before measuring anything, so a
// manifest that drifted from the code stops every run.
func checkManifest(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading the manifest (run from the repository root): %w", err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var diffs []string
	compare := func(kind string, got, want []entry) {
		if len(got) != len(want) {
			diffs = append(diffs, fmt.Sprintf("%s: %s lists %d, the command has %d", kind, path, len(got), len(want)))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				diffs = append(diffs, fmt.Sprintf("%s %d: %s has %s [%s], the command %s [%s]", kind, i, path, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit))
			}
		}
	}
	defs := func(ms []metricDef) []entry {
		out := make([]entry, len(ms))
		for i, m := range ms {
			out[i] = entry{m.name, m.unit}
		}
		return out
	}
	names := make([]entry, len(workloads))
	for i, w := range workloads {
		names[i] = entry{Name: w.name}
	}
	compare("workloads", doc.Workloads, names)
	compare("end_to_end", doc.EndToEnd, defs(e2eMetrics))
	compare("per_layer", doc.PerLayer, defs(layerMetrics))
	if len(diffs) > 0 {
		return fmt.Errorf("the manifest does not match the command:\n  %s", strings.Join(diffs, "\n  "))
	}
	return nil
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	names := flag.String("workload", "fig15-sweep,baseline-dram,vip-chain,serve-mix", "comma-separated workloads to run")
	seed := flag.Uint64("seed", 1, "seed of the workloads' inputs")
	seconds := flag.Int("seconds", 20, "seconds each workload measures for")
	traced := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "directory for the traced pass's spans, profiles and layers.json")
	outFile := flag.String("out", "", "also write the full results, with quartiles and sample counts, to this JSON file")
	sweepMS := flag.Int("sweep-ms", int(defaults.sweepDur/sim.Millisecond), "simulated milliseconds of each fig15-sweep cell")
	flag.Parse()

	var chosen []workload
	for _, n := range strings.Split(*names, ",") {
		w, ok := lookup(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "vipbench: unknown workload %q\n", n)
			os.Exit(2)
		}
		chosen = append(chosen, w)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || *seed == 0 || *sweepMS < 1 {
		fmt.Fprintln(os.Stderr, "vipbench: -seconds and -sweep-ms must be at least 1, -trace 0 or 1, -seed positive")
		os.Exit(2)
	}
	p := defaults
	p.sweepDur = sim.Time(*sweepMS) * sim.Millisecond
	if err := checkManifest("BENCHMARK.json"); err != nil {
		fmt.Fprintf(os.Stderr, "vipbench: %v\n", err)
		os.Exit(1)
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vipbench: %v\n", err)
		os.Exit(1)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, nproc: runtime.NumCPU(), golden: g}
	parallel.SetJobs(o.nproc)
	dir := ""
	if *traced == 1 {
		dir = *traceDir
	}
	host := map[string]any{
		"nproc": o.nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "engine_version": vip.EngineVersion,
	}
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s engine=%s\n", o.nproc, runtime.GOMAXPROCS(0), runtime.Version(), vip.EngineVersion)
	fmt.Println("simulated state (DRAM rows, flow buffers, the serve cache) starts empty on every op")

	res := result{Correct: true, Metrics: make(map[string]metric)}
	full := map[string]any{"host": host, "seed": o.seed, "seconds": *seconds, "trace": *traced}
	for _, w := range chosen {
		out, err := measure(w, p, o, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vipbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printOutcome(w.name, out)
		res.Attempted += out.attempted
		res.Failed += out.failed
		res.Correct = res.Correct && out.failed == 0 && !out.invalid
		defs, vals := e2eMetrics, out.e2e
		if dir != "" {
			defs, vals = layerMetrics, out.layer
		}
		for _, d := range defs {
			name := d.name
			if len(chosen) > 1 {
				name = w.name + "." + name
			}
			res.Metrics[name] = metric{vals[d.name], d.unit}
		}
		full[w.name] = map[string]any{
			"end_to_end": out.e2e, "per_layer": out.layer, "timings": out.timings,
			"digests": out.digests, "problems": out.problems,
			"attempted": out.attempted, "failed": out.failed, "invalid": out.invalid,
		}
	}
	if *outFile != "" {
		b, err := json.MarshalIndent(full, "", " ")
		if err == nil {
			err = os.WriteFile(*outFile, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "vipbench: writing %s: %v\n", *outFile, err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vipbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printOutcome prints one workload's timings, digests and problems.
func printOutcome(name string, out *outcome) {
	fmt.Printf("workload %s: %d ops, %d failed\n", name, out.attempted, out.failed)
	names := make([]string, 0, len(out.timings))
	for n := range out.timings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := out.timings[n]
		fmt.Printf("  %-16s p50=%.6g q1=%.6g q3=%.6g p%.0f=%.6g n=%d\n", n, s.P50, s.Q1, s.Q3, 100*s.TailP, s.Tail, s.N)
	}
	fmt.Printf("  %-16s %.6g\n", "alloc_mb", out.e2e["alloc_mb"])
	for _, d := range out.digests {
		fmt.Println("  digest", d)
	}
	for _, p := range out.problems {
		fmt.Println("  FAIL", p)
	}
}
