// Package bench holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (run with `go test -bench=. .`).
// Each benchmark executes the corresponding experiment and reports its
// headline quantities via b.ReportMetric, so `go test -bench` output
// doubles as a compact reproduction log. The printable row-by-row form of
// every figure is produced by `go run ./cmd/vipfig -exp all`.
package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/vipsim/vip/internal/experiments"
	"github.com/vipsim/vip/internal/parallel"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/vip"
)

// -bench-out makes every benchmark that reports metrics also dump them —
// plus its ns/op, allocs/op and bytes/op — to BENCH_<name>.json in the
// given directory, so CI and sweep scripts can diff runs without
// scraping `go test -bench` output.
var benchOut = flag.String("bench-out", "", "directory for per-benchmark BENCH_<name>.json metric dumps")

// benchRecord is one benchmark's staged BENCH_<name>.json: its reported
// metrics and the heap counters when measure started it.
type benchRecord struct {
	metrics        map[string]float64
	mallocs, bytes uint64
}

var (
	benchMu      sync.Mutex
	benchRecords = make(map[string]*benchRecord)
)

// measure starts the measured part of b, after any set-up: it resets
// the timer, turns on allocation reporting and, when -bench-out is set,
// snapshots the heap counters for the dump's allocs_per_op and
// bytes_per_op. Every benchmark that calls report calls it first.
func measure(b *testing.B) {
	b.ReportAllocs()
	if *benchOut != "" {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		benchMu.Lock()
		benchRecords[b.Name()] = &benchRecord{metrics: map[string]float64{}, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
		benchMu.Unlock()
		b.Cleanup(func() { flushBench(b) })
	}
	b.ResetTimer()
}

// report forwards to b.ReportMetric and, when -bench-out is set, stages
// the metric for the benchmark's JSON dump (flushed via b.Cleanup).
func report(b *testing.B, v float64, unit string) {
	b.ReportMetric(v, unit)
	if *benchOut == "" {
		return
	}
	benchMu.Lock()
	rec := benchRecords[b.Name()]
	if rec != nil {
		rec.metrics[unit] = v
	}
	benchMu.Unlock()
	if rec == nil {
		b.Fatalf("bench-out: %s reports %q without calling measure first", b.Name(), unit)
	}
}

func flushBench(b *testing.B) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	benchMu.Lock()
	rec := benchRecords[b.Name()]
	delete(benchRecords, b.Name())
	benchMu.Unlock()
	m := rec.metrics
	if b.N > 0 {
		n := float64(b.N)
		m["ns_per_op"] = float64(b.Elapsed().Nanoseconds()) / n
		m["allocs_per_op"] = float64(ms.Mallocs-rec.mallocs) / n
		m["bytes_per_op"] = float64(ms.TotalAlloc-rec.bytes) / n
	}
	name := strings.NewReplacer("/", "_", "=", "_").Replace(strings.TrimPrefix(b.Name(), "Benchmark"))
	data, err := json.MarshalIndent(m, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*benchOut, "BENCH_"+name+".json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		b.Errorf("bench-out: %v", err)
	}
}

// benchDur keeps each simulated run short enough for benchmarking while
// still covering several GOPs and bursts.
const benchDur = 150 * sim.Millisecond

// sweepOnce shares the 5-design x 15-scenario sweep between the Figure
// 15-18 benchmarks; it is by far the most expensive experiment.
var (
	sweepOnce sync.Once
	sweepVal  *experiments.ModeSweep
	sweepErr  error
)

func sharedSweep(b *testing.B) *experiments.ModeSweep {
	b.Helper()
	sweepOnce.Do(func() {
		sweepVal, sweepErr = experiments.RunModeSweep(benchDur)
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepVal
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTable1(io.Discard)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTable2(io.Discard)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTable3(io.Discard)
	}
}

// BenchmarkFig02 regenerates Figure 2: CPU time, energy/frame, interrupts
// and FPS for 1..4 concurrent video players on the baseline.
func BenchmarkFig02(b *testing.B) {
	var f *experiments.Fig02
	measure(b)
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.RunFig02(benchDur)
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, f.CPUTimeMS60[0], "cpu_ms_1app")
	report(b, f.CPUTimeMS60[3], "cpu_ms_4app")
	report(b, f.InterruptsNorm[3], "intr_x_4app")
	report(b, f.FPS[3], "fps_4app")
}

// BenchmarkFig03 regenerates Figure 3: VD active time, utilization and
// memory bandwidth under 1..4 apps plus the ideal memory.
func BenchmarkFig03(b *testing.B) {
	var f *experiments.Fig03
	measure(b)
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.RunFig03(benchDur)
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, f.ActivePerFrameMS[3], "vd_active_ms_4app")
	report(b, f.IdealActiveMS, "vd_active_ms_ideal4")
	report(b, f.Utilization[0]*100, "vd_util_pct_1app")
	report(b, f.Utilization[3]*100, "vd_util_pct_4app")
	report(b, f.AvgBWGBps[3], "bw_gbps_4app")
	report(b, f.TimeAbove80[3]*100, "time_gt80bw_pct_4app")
}

// BenchmarkFig05 regenerates Figure 5: the tap-interval distribution.
func BenchmarkFig05(b *testing.B) {
	var f *experiments.Fig05
	measure(b)
	for i := 0; i < b.N; i++ {
		f = experiments.RunFig05(24000, 1)
	}
	report(b, f.Over05*100, "taps_gt_0.5s_pct")
}

// BenchmarkFig06 regenerates Figure 6: flick burstability.
func BenchmarkFig06(b *testing.B) {
	var f *experiments.Fig06
	measure(b)
	for i := 0; i < b.N; i++ {
		f = experiments.RunFig06(200*60*sim.Second, 1)
	}
	report(b, f.BurstableFrac()*100, "burstable_pct")
	report(b, float64(f.MaxBurst), "max_burst_frames")
}

// BenchmarkFig14 regenerates Figure 14a: flow time vs lane buffer size.
func BenchmarkFig14(b *testing.B) {
	var f *experiments.Fig14
	measure(b)
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.RunFig14(benchDur)
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, f.FlowTimeNorm[0], "flowtime_x_0.5KB")
	report(b, f.FlowTimeNorm[2], "flowtime_x_2KB")
	report(b, f.ReadNJ[len(f.ReadNJ)-1], "read_nJ_64KB")
}

// BenchmarkFig15 regenerates Figure 15: normalized energy per frame.
func BenchmarkFig15(b *testing.B) {
	sw := sharedSweep(b)
	var avg []float64
	measure(b)
	for i := 0; i < b.N; i++ {
		_, avg = sw.NormalizedEnergy()
	}
	report(b, avg[1], "frameburst_x")
	report(b, avg[2], "iptoip_x")
	report(b, avg[4], "vip_x")
}

// BenchmarkFig16 regenerates Figure 16: burst-mode CPU savings.
func BenchmarkFig16(b *testing.B) {
	sw := sharedSweep(b)
	var eRed, iRed, intrBase, intrFB float64
	measure(b)
	for i := 0; i < b.N; i++ {
		eRed, iRed, intrBase, intrFB = 0, 0, 0, 0
		n := float64(len(sw.Cells))
		for _, row := range sw.Cells {
			base, fb := row[0], row[1]
			eRed += (1 - fb.CPUEnergyJ/base.CPUEnergyJ) / n
			iRed += (1 - float64(fb.Instructions)/float64(base.Instructions)) / n
			intrBase += base.InterruptsP100 / n
			intrFB += fb.InterruptsP100 / n
		}
	}
	report(b, eRed*100, "cpu_energy_red_pct")
	report(b, iRed*100, "instr_red_pct")
	report(b, intrBase, "intr_p100ms_base")
	report(b, intrFB, "intr_p100ms_burst")
}

// BenchmarkFig17 regenerates Figure 17: normalized flow time.
func BenchmarkFig17(b *testing.B) {
	sw := sharedSweep(b)
	var avg []float64
	measure(b)
	for i := 0; i < b.N; i++ {
		_, avg = sw.NormalizedFlowTime()
	}
	report(b, avg[1], "frameburst_x")
	report(b, avg[2], "iptoip_x")
	report(b, avg[4], "vip_x")
}

// BenchmarkFig18 regenerates Figure 18: normalized QoS violations.
func BenchmarkFig18(b *testing.B) {
	sw := sharedSweep(b)
	var avg []float64
	measure(b)
	for i := 0; i < b.N; i++ {
		_, avg = sw.NormalizedViolations()
	}
	report(b, avg[1], "frameburst_x")
	report(b, avg[3], "iptoipburst_x")
	report(b, avg[4], "vip_x")
}

// BenchmarkEngineSchedule measures the engine hot path in isolation: one
// schedule + one fire per op against a warm, pre-sized queue held 64
// deep. It is allocation-free (the paired assertion is internal/sim's
// TestEngineZeroAllocSteadyState). In steady state every insert lands
// behind all 64 queued 24-byte events, so each one shifts the whole
// queue; the model's queues are shallower and their inserts land far
// nearer the earliest end: over the 50 ms fig15 sweep the queue peaks
// at 29 events.
func BenchmarkEngineSchedule(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(sim.Time(i%7), fn)
	}
	measure(b)
	for i := 0; i < b.N; i++ {
		e.After(3, fn)
		e.Step()
	}
	report(b, float64(e.Fired()), "events_fired")
}

// BenchmarkEngineChurn is the sorted run's deep-queue worst case: four
// out-of-order schedules and four fires per op over a ~512-deep queue,
// with inserts landing anywhere in it. No model scenario builds such a
// queue: over 200 ms the measured peaks are 21 queued events for 4×A5
// on Baseline, 33 on VIP and 98 for 32 A5 players on VIP.
func BenchmarkEngineChurn(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	for i := 0; i < 512; i++ {
		e.After(sim.Time((i*37)%101), fn)
	}
	measure(b)
	var k sim.Time
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4; j++ {
			k++
			e.After((k*31)%97, fn)
		}
		for j := 0; j < 4; j++ {
			e.Step()
		}
	}
	report(b, float64(e.Fired()), "events_fired")
}

// BenchmarkSweepParallel runs the full 5-design x 15-scenario mode sweep
// serially and at the full worker budget; the ns/op ratio between the
// two sub-benchmarks is the executor's wall-clock speedup on this host
// (on a single-core host only the serial arm runs).
func BenchmarkSweepParallel(b *testing.B) {
	budgets := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		budgets = append(budgets, n)
	}
	for _, jobs := range budgets {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			prev := parallel.SetJobs(jobs)
			defer parallel.SetJobs(prev)
			var sw *experiments.ModeSweep
			measure(b)
			for i := 0; i < b.N; i++ {
				var err error
				sw, err = experiments.RunModeSweep(benchDur)
				if err != nil {
					b.Fatal(err)
				}
			}
			_, avg := sw.NormalizedEnergy()
			report(b, float64(jobs), "jobs")
			report(b, avg[len(avg)-1], "vip_x")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// seconds per wall second for the heaviest scenario (4 video players,
// baseline).
func BenchmarkSimulatorThroughput(b *testing.B) {
	var frames int
	measure(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(experiments.Config{
			Mode:     platform.Baseline,
			AppIDs:   []string{"A5", "A5", "A5", "A5"},
			Duration: 100 * sim.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		frames = rep.DisplayedFrames
	}
	report(b, float64(frames), "frames")
}

// BenchmarkAblationScheduler compares the VIP hardware schedulers (EDF vs
// RR vs fixed Priority) on the decoder-sharing workload W1.
func BenchmarkAblationScheduler(b *testing.B) {
	var st *experiments.SchedulerStudy
	measure(b)
	for i := 0; i < b.N; i++ {
		var err error
		st, err = experiments.RunSchedulerStudy("W1", benchDur)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range st.Rows {
		report(b, r.ViolationRate*100, "viol_pct_"+r.Policy.String())
	}
}

// BenchmarkAblationBurst sweeps the frame-burst size.
func BenchmarkAblationBurst(b *testing.B) {
	var s *experiments.Sweep
	measure(b)
	for i := 0; i < b.N; i++ {
		var err error
		s, err = experiments.RunBurstSweep(benchDur)
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, s.Rows[0].IntrPer100ms, "intr_p100ms_burst1")
	report(b, s.Rows[len(s.Rows)-1].IntrPer100ms, "intr_p100ms_burst7")
}

// BenchmarkAblationLanes sweeps the virtual-lane count on W2.
func BenchmarkAblationLanes(b *testing.B) {
	var s *experiments.Sweep
	measure(b)
	for i := 0; i < b.N; i++ {
		var err error
		s, err = experiments.RunLaneSweep(benchDur)
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, s.Rows[0].ViolationRate*100, "viol_pct_1lane")
	report(b, s.Rows[2].ViolationRate*100, "viol_pct_3lane")
}

// BenchmarkAblationPatience sweeps the EDF switch patience, exposing the
// context-switch thrash cliff at zero.
func BenchmarkAblationPatience(b *testing.B) {
	var s *experiments.Sweep
	measure(b)
	for i := 0; i < b.N; i++ {
		var err error
		s, err = experiments.RunPatienceSweep(benchDur)
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, float64(s.Rows[0].CtxSwitches), "ctxsw_patience0")
	report(b, float64(s.Rows[2].CtxSwitches), "ctxsw_patience2us")
}

// BenchmarkRunner measures the end-to-end public-API runner with the
// metrics layer disabled (the nil-registry fast path) and enabled at the
// conventional 1 ms sampling period, to show observability is
// pay-as-you-go.
func BenchmarkRunner(b *testing.B) {
	for _, c := range []struct {
		name     string
		interval vip.Duration
	}{
		{"metrics-off", 0},
		{"metrics-on-1ms", vip.Millisecond},
	} {
		b.Run(c.name, func(b *testing.B) {
			var res *vip.Result
			measure(b)
			for i := 0; i < b.N; i++ {
				var err error
				res, err = vip.Simulate(vip.Scenario{
					System:          vip.SystemVIP,
					Apps:            []string{"A5", "A5"},
					Duration:        100 * sim.Millisecond,
					MetricsInterval: c.interval,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, float64(res.DisplayedFrames), "frames")
			if c.interval > 0 {
				report(b, float64(res.MetricSamples()), "samples")
			}
		})
	}
}
