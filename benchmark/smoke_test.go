package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/vip"
)

// tiny shrinks every workload to a few simulated milliseconds; the
// sweep, which runs 75 of them, to one.
var tiny = params{
	sweepDur: sim.Millisecond,
	runDur:   5 * sim.Millisecond,
	keyDur:   5 * sim.Millisecond,
	rate:     12,
	minOps:   1,

	calibIters: 5_000,
}

func tinyOptions(t *testing.T, seconds time.Duration) options {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return options{seed: 1, seconds: seconds, nproc: 2, golden: g}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			seconds := time.Duration(0) // minOps alone bounds the closed loops
			if w.name == "serve-mix" {
				seconds = time.Second
			}
			out, err := w.run(tiny, tinyOptions(t, seconds), nil)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted < 1 || out.failed != 0 || out.invalid {
				t.Fatalf("%d ops, %d failed, invalid=%v: %v", out.attempted, out.failed, out.invalid, out.problems)
			}
			for _, d := range e2eMetrics {
				if out.e2e[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, out.e2e[d.name])
				}
			}
			// The sweep counts its simulated work in the traced pass only.
			if w.name != "fig15-sweep" && out.layer["sim.events"] <= 0 {
				t.Errorf("sim.events = %v, want > 0", out.layer["sim.events"])
			}
		})
	}
}

// The layers contrast on the two single-run workloads: Baseline stages
// every frame through DRAM and never uses the NoC.
func TestLayerContrast(t *testing.T) {
	o := tinyOptions(t, 0)
	base, err := workloads[1].run(tiny, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := workloads[2].run(tiny, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.layer["noc.transfers"] != 0 || chain.layer["noc.transfers"] == 0 {
		t.Errorf("noc.transfers %v on baseline, %v on vip; want 0 and > 0", base.layer["noc.transfers"], chain.layer["noc.transfers"])
	}
	if base.layer["dram.requests"] < 2*chain.layer["dram.requests"] {
		t.Errorf("dram.requests %v on baseline, %v on vip; want baseline well above", base.layer["dram.requests"], chain.layer["dram.requests"])
	}
}

// A pinned digest that does not match fails an op.
func TestDigestMismatchFails(t *testing.T) {
	o := tinyOptions(t, 0)
	o.golden = golden{EngineVersion: vip.EngineVersion, Digests: map[string]string{
		goldenKey("vip-chain", tiny.runDur, "1"): "0000",
	}}
	out, err := workloads[2].run(tiny, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 {
		t.Fatal("a wrong pinned digest did not fail the run")
	}
	if status, ok := o.golden.check("elsewhere", "abcd"); !ok || status != "unpinned" {
		t.Errorf("an unpinned key: %q, %v", status, ok)
	}
	stale := golden{EngineVersion: "older", Digests: o.golden.Digests}
	if _, ok := stale.check(goldenKey("vip-chain", tiny.runDur, "1"), "abcd"); !ok {
		t.Error("digests of another engine version must not fail the run")
	}
}

// The traced pass writes its spans, profile and layer summary. On the
// sweep it also replays every cell serially and checks it against the
// sweep's.
func TestTracedPassWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads[:2] {
		out, err := measure(w, tiny, tinyOptions(t, 0), dir)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || out.attempted < 2 {
			t.Fatalf("%s: %d ops, %d failed: %v", w.name, out.attempted, out.failed, out.problems)
		}
		sub := filepath.Join(dir, w.name+"-seed1")
		for _, f := range []string{"spans.jsonl", "spans.chrome.json", "cpu.pprof", "cpu-top.txt", "layers.json"} {
			if st, err := os.Stat(filepath.Join(sub, f)); err != nil || st.Size() == 0 {
				t.Errorf("%s: %s missing or empty: %v", w.name, f, err)
			}
		}
		for _, d := range []string{"sim.events", "platform.new_ms", "core.new_runner_ms"} {
			if out.layer[d] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d, out.layer[d])
			}
		}
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the command
// reports, and a manifest that drifts is caught.
func TestManifestMatchesCommand(t *testing.T) {
	if err := checkManifest("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	doc["end_to_end"] = doc["end_to_end"].([]any)[1:]
	drifted, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, drifted, 0o644); err != nil {
		t.Fatal(err)
	}
	if checkManifest(path) == nil {
		t.Error("a manifest missing an end-to-end metric passed the check")
	}
}
