package main

import (
	"math"
	"testing"
)

// A trimmed `go tool pprof -top` listing.
const topSample = `File: vipbench
Type: cpu
Duration: 10.03s, Total samples = 10s (99.70%)
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
     2.50s 25.00% 25.00%      3.00s 30.00%  github.com/vipsim/vip/internal/sim.(*eventQueue).siftDown
     1.50s 15.00% 40.00%      1.50s 15.00%  github.com/vipsim/vip/internal/ipcore.(*Lane).head (inline)
     1.20s 12.00% 52.00%      2.00s 20.00%  runtime.mallocgc
     0.80s  8.00% 60.00%      0.80s  8.00%  runtime.futex
     0.60s  6.00% 66.00%      0.60s  6.00%  aeshashbody
     0.50s  5.00% 71.00%      0.50s  5.00%  github.com/vipsim/vip/internal/dram.(*Controller).startNext
     0.50s  5.00% 76.00%      0.70s  7.00%  github.com/vipsim/vip/internal/parallel.Map[go.shape.*github.com/vipsim/vip/internal/core.Report].func1
     0.40s  4.00% 80.00%      0.40s  4.00%  encoding/json.(*encodeState).string
     0.40s  4.00% 84.00%      0.40s  4.00%  net/http.(*conn).serve
     0.30s  3.00% 87.00%      0.30s  3.00%  github.com/vipsim/vip/internal/core.(*Runner).releaseGroup
     0.30s  3.00% 90.00%      0.30s  3.00%  github.com/vipsim/vip/vip.Simulate
     0.30s  3.00% 93.00%      0.30s  3.00%  github.com/vipsim/vip/internal/stats.(*Sample).Add
     0.20s  2.00% 95.00%      0.20s  2.00%  internal/runtime/maps.(*Map).getWithKeySmall
     0.10s  1.00% 96.00%      0.10s  1.00%  main.post
     0.10s  1.00% 97.00%      0.10s  1.00%  gcWriteBarrier
     200ms  2.00% 99.00%      200ms  2.00%  github.com/vipsim/vip/internal/serve.(*Server).handleSim
     100ms  1.00%   100%      100ms  1.00%  github.com/vipsim/vip/internal/cache.(*Cache).Get
`

func TestBucketTopByModule(t *testing.T) {
	got, err := bucketTop(topSample)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 25, "ipcore": 15, "runtime.gc": 13, "runtime.other": 16, "dram": 5,
		"experiments": 5, "nethttp_json": 8, "core": 6, "other": 4, "serve": 2, "cache": 1,
		"noc": 0, "cpu": 0, "energy": 0,
	}
	sum := 0.0
	for _, b := range buckets {
		if math.Abs(got[b]-want[b]) > 1e-9 {
			t.Errorf("bucket %s = %v%%, want %v%%", b, got[b], want[b])
		}
		sum += got[b]
	}
	if len(got) != len(buckets) || math.Abs(sum-100) > 1e-9 {
		t.Errorf("%d buckets summing to %v%%, want %d summing to 100%%", len(got), sum, len(buckets))
	}
	if _, err := bucketTop("no table here"); err == nil {
		t.Error("accepted output without a sample total")
	}
}

func TestPprofSeconds(t *testing.T) {
	for in, want := range map[string]float64{"1.5s": 1.5, "30ms": 0.03, "20us": 2e-5, "7ns": 7e-9, "2mins": 120, "1hrs": 3600, "0": 0} {
		if got, err := pprofSeconds(in); err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("pprofSeconds(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := pprofSeconds("5 apples"); err == nil {
		t.Error("accepted a value without a unit")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "run", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{Trace: 1, ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the parent
	}
	st := selfTimes(spans)
	if got := st["run"].SelfMS * 1e6; math.Abs(got-40) > 1e-9 {
		t.Errorf("run self = %vns, want 40ns (100 minus 50 covered by a and b, minus 10 by the second b)", got)
	}
	if st["b"].Count != 2 || math.Abs(st["b"].TotalMS*1e6-60) > 1e-9 {
		t.Errorf("b = %+v, want 2 spans, 60ns in all", st["b"])
	}
}
