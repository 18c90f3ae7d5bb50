package vip_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/vipsim/vip/internal/experiments"
	"github.com/vipsim/vip/internal/parallel"
	"github.com/vipsim/vip/vip"
)

// artifacts captures every machine-readable output of one run.
type artifacts struct {
	report     []byte
	tsJSON     []byte
	tsCSV      []byte
	chrome     []byte
	spanJSONL  []byte
	spanChrome []byte
	summary    string
}

// runOnce executes a faulted, recovered, metered, traced multi-app
// scenario — every subsystem that could smuggle nondeterminism into an
// export is on.
func runOnce(t *testing.T, seed uint64) artifacts {
	t.Helper()
	var chrome bytes.Buffer
	faults := &vip.Faults{Rate: 0.02}
	res, err := vip.Simulate(vip.Scenario{
		System:          vip.SystemVIP,
		Apps:            []string{"A5", "A2", "A6"},
		Duration:        120 * vip.Millisecond,
		Seed:            seed,
		MetricsInterval: vip.Millisecond,
		ChromeTrace:     &chrome,
		TraceSpans:      true,
		Faults:          faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out artifacts
	var buf bytes.Buffer
	if err := res.WriteReportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.report = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := res.WriteTimeSeriesJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.tsJSON = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := res.WriteTimeSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out.tsCSV = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := res.WriteSpanJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out.spanJSONL = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := res.WriteSpanChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out.spanChrome = append([]byte(nil), buf.Bytes()...)
	out.chrome = chrome.Bytes()
	out.summary = res.Summary()
	return out
}

// TestSameSeedByteIdentical is the reproducibility contract the whole
// evaluation methodology (and viplint's rule suite) exists to protect:
// two runs of the same faulted multi-app scenario with the same seed
// must export byte-identical report JSON, metric time series (JSON and
// CSV), Chrome trace and summary.
func TestSameSeedByteIdentical(t *testing.T) {
	a := runOnce(t, 7)
	b := runOnce(t, 7)
	checkArtifacts(t, "same-seed runs", a, b)
	if len(a.report) == 0 || len(a.tsCSV) == 0 || len(a.chrome) == 0 || len(a.spanJSONL) == 0 {
		t.Fatal("a determinism check over empty artifacts proves nothing")
	}
	// The faulted multi-app scenario must exercise every span category,
	// or the byte-compare above silently loses coverage.
	for _, cat := range []string{`"cat":"frame"`, `"cat":"hop"`, `"cat":"qos"`, `"cat":"recovery"`} {
		if !bytes.Contains(a.spanJSONL, []byte(cat)) {
			t.Errorf("span log has no %s spans", cat)
		}
	}
}

// checkArtifacts compares every artifact of two runs byte for byte,
// reporting the first divergence with context. label names the pair in
// failures ("run1" vs "run2" framing).
func checkArtifacts(t *testing.T, label string, a, b artifacts) {
	t.Helper()
	check := func(name string, x, y []byte) {
		t.Helper()
		if !bytes.Equal(x, y) {
			i := 0
			for i < len(x) && i < len(y) && x[i] == y[i] {
				i++
			}
			lo, hi := max(0, i-80), min(min(len(x), len(y)), i+80)
			t.Errorf("%s differs between %s at byte %d:\n run1: …%s…\n run2: …%s…",
				name, label, i, x[lo:hi], y[lo:hi])
		}
	}
	check("report JSON", a.report, b.report)
	check("time-series JSON", a.tsJSON, b.tsJSON)
	check("time-series CSV", a.tsCSV, b.tsCSV)
	check("chrome trace", a.chrome, b.chrome)
	check("span JSONL", a.spanJSONL, b.spanJSONL)
	check("span chrome trace", a.spanChrome, b.spanChrome)
	if a.summary != b.summary {
		t.Errorf("summaries differ between %s:\n%s\n---\n%s", label, a.summary, b.summary)
	}
}

// TestFaultGridSameSeedByteIdentical runs every cell of a fault-rate x
// recovery grid twice with the same seed and compares report and span
// bytes. Fault streams, watchdog resets, retries and degradation all
// ride engine event order, and this is the only byte-identity check of
// the DisableRecovery arm.
func TestFaultGridSameSeedByteIdentical(t *testing.T) {
	for _, rate := range []float64{0, 0.01, 0.05} {
		for _, noRecovery := range []bool{false, true} {
			if rate == 0 && noRecovery {
				continue // no faults: the recovery arm changes nothing
			}
			sc := vip.Scenario{
				System:     vip.SystemVIP,
				Apps:       []string{"A5", "A2"},
				Duration:   40 * vip.Millisecond,
				Seed:       11,
				TraceSpans: true,
			}
			if rate > 0 {
				f := &vip.Faults{Rate: rate}
				f.DisableRecovery = noRecovery
				sc.Faults = f
			}
			run := func() (report, spans []byte) {
				res, err := vip.Simulate(sc)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := res.WriteReportJSON(&buf); err != nil {
					t.Fatal(err)
				}
				report = append([]byte(nil), buf.Bytes()...)
				buf.Reset()
				if err := res.WriteSpanJSONL(&buf); err != nil {
					t.Fatal(err)
				}
				return report, append([]byte(nil), buf.Bytes()...)
			}
			report1, spans1 := run()
			report2, spans2 := run()
			if !bytes.Equal(report1, report2) || !bytes.Equal(spans1, spans2) {
				t.Errorf("rate=%g noRecovery=%v: same-seed runs diverge", rate, noRecovery)
			}
			if len(report1) == 0 {
				t.Fatalf("rate=%g noRecovery=%v: empty report", rate, noRecovery)
			}
		}
	}
}

// renderSweep captures every consumer-visible byte of a mode sweep: the
// rendered Figure 15-18 tables and the machine-readable JSON vipfig
// -json would emit for the "sweep" artifact.
func renderSweep(t *testing.T, sw *experiments.ModeSweep) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw.WriteFig15(&buf)
	sw.WriteFig16(&buf)
	sw.WriteFig17(&buf)
	sw.WriteFig18(&buf)
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(sw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepParallelMatchesSerial is the parallel executor's contract:
// fanning the 75 independent runs of RunModeSweep across 8 workers must
// leave every rendered table and every report byte identical to the
// serial sweep — parallelism buys wall time, never different numbers.
func TestSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 5-design x 15-scenario sweep twice")
	}
	const dur = 40 * vip.Millisecond

	prev := parallel.SetJobs(1)
	defer parallel.SetJobs(prev)
	serialSweep, err := experiments.RunModeSweep(dur)
	if err != nil {
		t.Fatal(err)
	}
	serial := renderSweep(t, serialSweep)

	parallel.SetJobs(8)
	parSweep, err := experiments.RunModeSweep(dur)
	if err != nil {
		t.Fatal(err)
	}
	par := renderSweep(t, parSweep)

	if !bytes.Equal(serial, par) {
		i := 0
		for i < len(serial) && i < len(par) && serial[i] == par[i] {
			i++
		}
		lo, hi := max(0, i-120), min(min(len(serial), len(par)), i+120)
		t.Errorf("-jobs 8 sweep diverges from serial at byte %d:\n serial: …%s…\n jobs=8: …%s…",
			i, serial[lo:hi], par[lo:hi])
	}
	if len(serial) == 0 {
		t.Fatal("rendered sweep is empty; the comparison proves nothing")
	}
}

// TestDifferentSeedDiverges guards the guard: if two different seeds
// produced identical faulted timelines, the byte-compare above would be
// vacuously green.
func TestDifferentSeedDiverges(t *testing.T) {
	a := runOnce(t, 7)
	b := runOnce(t, 8)
	if bytes.Equal(a.tsJSON, b.tsJSON) && bytes.Equal(a.report, b.report) {
		t.Error("seeds 7 and 8 produced identical artifacts; the seed is not reaching the models")
	}
}
