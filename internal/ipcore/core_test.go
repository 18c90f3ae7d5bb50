package ipcore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/vipsim/vip/internal/dram"
	"github.com/vipsim/vip/internal/energy"
	"github.com/vipsim/vip/internal/noc"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/telemetry"
)

// rig bundles the substrate a core needs.
type rig struct {
	eng  *sim.Engine
	sa   *noc.Fabric
	mem  *dram.Controller
	acct *energy.Account
}

func newRig() *rig {
	eng := sim.NewEngine()
	acct := &energy.Account{}
	// Refresh ticks make generous Run horizons expensive; the DRAM
	// package tests cover refresh behaviour.
	mcfg := dram.DefaultConfig()
	mcfg.TREFI = 0
	return &rig{
		eng:  eng,
		sa:   noc.NewFabric(eng, noc.DefaultConfig(), acct),
		mem:  dram.NewController(eng, mcfg, acct),
		acct: acct,
	}
}

func testConfig(name string) Config {
	return Config{
		Name:          name,
		Kind:          VD,
		ThroughputBPS: 1e9, // 1 GB/s -> 1us per KB
		Lanes:         1,
		LaneBufBytes:  2 << 10,
		SubframeBytes: 1 << 10,
		Policy:        FCFS,
		MaxWrites:     2,
		Prefetch:      2,
		ActiveW:       0.2,
		StallW:        0.07,
		IdleW:         0.005,
	}
}

func (r *rig) newCore(cfg Config) *Core {
	return NewCore(r.eng, cfg, r.sa, r.mem, r.acct, energy.DefaultSRAM())
}

func TestKindStrings(t *testing.T) {
	if VD.String() != "VD" || GPU.String() != "GPU" || MMC.String() != "MMC" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "IP?" {
		t.Error("out-of-range kind should render IP?")
	}
}

func TestKindSourceSink(t *testing.T) {
	if !CAM.IsSource() || !MIC.IsSource() {
		t.Error("CAM/MIC are sources")
	}
	if VD.IsSource() {
		t.Error("VD is not a source")
	}
	for _, k := range []Kind{SND, NW, MMC, DC} {
		if !k.IsSink() {
			t.Errorf("%v should be a sink", k)
		}
	}
	if GPU.IsSink() {
		t.Error("GPU is not a sink")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.ThroughputBPS = 0 },
		func(c *Config) { c.Lanes = 0 },
		func(c *Config) { c.SubframeBytes = 0 },
		func(c *Config) { c.LaneBufBytes = 0 },
		func(c *Config) { c.MaxWrites = 0 },
		func(c *Config) { c.Prefetch = 0 },
	}
	for i, mut := range bad {
		cfg := testConfig("x")
		mut(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestJobValidate(t *testing.T) {
	cases := []struct {
		j  Job
		ok bool
	}{
		{Job{InBytes: 100, OutBytes: 100}, true},
		{Job{InBytes: -1, OutBytes: 100}, false},
		{Job{}, false},
		{Job{InFromDRAM: true, OutBytes: 10}, false},
		{Job{InBytes: 10, OutBytes: 10, OutToDRAM: true, OutLane: &Lane{}}, false},
		{Job{InBytes: 10, OutToDRAM: true}, false},
	}
	for i, c := range cases {
		err := c.j.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: err=%v, ok=%v", i, err, c.ok)
		}
	}
}

func TestChunkPartitioning(t *testing.T) {
	j := &Job{InBytes: 1000, OutBytes: 3000, chunks: 7}
	var in, out, basis int
	for k := 0; k < 7; k++ {
		in += j.inChunk(k)
		out += j.outChunk(k)
		basis += j.basisChunk(k)
	}
	if in != 1000 || out != 3000 || basis != 3000 {
		t.Errorf("chunk sums = %d/%d/%d, want 1000/3000/3000", in, out, basis)
	}
}

// Property: chunk partitions always sum exactly and every chunk is
// non-negative, for arbitrary sizes and chunk counts; the cached next
// chunk sizes track the progress counters through every chunk.
func TestChunkPartitionProperty(t *testing.T) {
	f := func(in, out uint16, kRaw uint8) bool {
		k := int(kRaw%31) + 1
		j := &Job{InBytes: int(in), OutBytes: int(out)}
		j.setChunks(k)
		var si, so int
		for c := 0; c < k; c++ {
			ic, oc := j.inChunk(c), j.outChunk(c)
			if ic < 0 || oc < 0 || chunkCacheErr(j) != "" {
				return false
			}
			si += ic
			so += oc
			j.advanceCompute()
			if chunkCacheErr(j) != "" {
				return false
			}
			j.advanceEmit()
		}
		return si == int(in) && so == int(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// chunkCacheErr describes how j's cached chunk sizes disagree with its
// progress counters, or returns "" when they agree.
func chunkCacheErr(j *Job) string {
	if j.computed < j.chunks && j.inNext != j.inChunk(j.computed) {
		return fmt.Sprintf("%s: inNext = %d, inChunk(%d) = %d", j.Label, j.inNext, j.computed, j.inChunk(j.computed))
	}
	if j.emitted < j.chunks && j.outNext != j.outChunk(j.emitted) {
		return fmt.Sprintf("%s: outNext = %d, outChunk(%d) = %d", j.Label, j.outNext, j.emitted, j.outChunk(j.emitted))
	}
	return ""
}

// TestChunkCacheTracksProgress runs two-lane EDF cores joined IP-to-IP,
// with sizes that leave chunk remainders and one job aborted mid-frame,
// and checks every job's cached chunk sizes after every event.
func TestChunkCacheTracksProgress(t *testing.T) {
	r := newRig()
	cfg := testConfig("vd")
	cfg.Lanes = 2
	cfg.Policy = EDF
	cfg.CtxSwitch = 100 * sim.Nanosecond
	prod := r.newCore(cfg)
	cfg.Name = "dc"
	cons := r.newCore(cfg)

	chained := &Job{Label: "dc/chained", InBytes: 23_999, OutBytes: 20_001, OutToDRAM: true, Deadline: sim.Millisecond}
	aborted := &Job{Label: "dc/aborted", InBytes: 30_007, OutBytes: 7_001, InFromDRAM: true, OutToDRAM: true,
		Deadline: sim.Millisecond + 1}
	after := &Job{Label: "dc/after", InBytes: 5_003, OutBytes: 9_999, InFromDRAM: true, OutToDRAM: true,
		Deadline: 2 * sim.Millisecond}
	feed := &Job{Label: "vd/feed", InBytes: 4_097, OutBytes: 23_999, InFromDRAM: true,
		OutLane: cons.Lane(0), OutConsumer: chained, Deadline: sim.Millisecond}
	source := &Job{Label: "vd/source", OutBytes: 13_013, OutToDRAM: true, Deadline: 2 * sim.Millisecond}
	for _, s := range []struct {
		c    *Core
		lane int
		j    *Job
	}{{cons, 0, chained}, {cons, 1, aborted}, {cons, 1, after}, {prod, 0, feed}, {prod, 1, source}} {
		if err := s.c.Submit(s.lane, s.j); err != nil {
			t.Fatal(err)
		}
	}
	jobs := []*Job{chained, aborted, after, feed, source}
	for r.eng.Step() {
		if !aborted.Done() && aborted.computed >= 3 {
			cons.Abort(aborted)
		}
		for _, j := range jobs {
			if msg := chunkCacheErr(j); msg != "" {
				t.Fatalf("at %v: %s", r.eng.Now(), msg)
			}
		}
	}
	if !aborted.Aborted() || aborted.computed >= aborted.chunks {
		t.Fatalf("aborted job: aborted=%v computed %d of %d chunks; want a mid-frame abort",
			aborted.Aborted(), aborted.computed, aborted.chunks)
	}
	for _, j := range []*Job{chained, after, feed, source} {
		if !j.Done() || j.Aborted() || j.emitted != j.chunks || j.chunks < 2 {
			t.Errorf("%s: done=%v aborted=%v emitted %d of %d chunks", j.Label, j.Done(), j.Aborted(), j.emitted, j.chunks)
		}
	}
	if cons.Stats().CtxSwitch == 0 {
		t.Error("the two consumer lanes never interleaved")
	}
}

func TestSimpleDRAMToDRAMJob(t *testing.T) {
	r := newRig()
	c := r.newCore(testConfig("vd"))
	done := sim.Time(-1)
	j := &Job{
		Label: "f0", InBytes: 64 << 10, OutBytes: 64 << 10,
		InFromDRAM: true, InAddr: 0, OutToDRAM: true, OutAddr: 1 << 20,
		OnDone: func() { done = r.eng.Now() },
	}
	if err := c.Submit(0, j); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(sim.Second)
	if done < 0 {
		t.Fatal("job never completed")
	}
	// Compute alone: 64KB at 1GB/s = 65.5us. With overlapped memory it
	// should finish within ~3x of that.
	if done > 200*sim.Microsecond {
		t.Errorf("completion %v seems too slow", done)
	}
	if !j.Done() || j.FinishedAt() != done {
		t.Error("job state not finalized")
	}
	st := c.Stats()
	if st.Frames != 1 {
		t.Errorf("Frames = %d, want 1", st.Frames)
	}
	if st.BytesIn != 64<<10 || st.BytesOut != 64<<10 {
		t.Errorf("bytes in/out = %d/%d", st.BytesIn, st.BytesOut)
	}
}

func TestSourceJobNeedsNoInput(t *testing.T) {
	r := newRig()
	cfg := testConfig("cam")
	cfg.Kind = CAM
	c := r.newCore(cfg)
	fired := false
	j := &Job{Label: "cap", OutBytes: 16 << 10, OutToDRAM: true, OnDone: func() { fired = true }}
	if err := c.Submit(0, j); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(sim.Second)
	if !fired {
		t.Fatal("source job did not complete")
	}
}

func TestSinkJobConsumesFromDRAM(t *testing.T) {
	r := newRig()
	cfg := testConfig("dc")
	cfg.Kind = DC
	c := r.newCore(cfg)
	fired := false
	j := &Job{Label: "scan", InBytes: 32 << 10, InFromDRAM: true, OnDone: func() { fired = true }}
	if err := c.Submit(0, j); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(sim.Second)
	if !fired {
		t.Fatal("sink job did not complete")
	}
}

func TestSubmitErrors(t *testing.T) {
	r := newRig()
	c := r.newCore(testConfig("vd"))
	if err := c.Submit(0, &Job{}); err == nil {
		t.Error("invalid job accepted")
	}
	if err := c.Submit(5, &Job{InBytes: 10, OutBytes: 10}); err == nil {
		t.Error("bad lane accepted")
	}
}

func TestTwoStageChain(t *testing.T) {
	r := newRig()
	prod := r.newCore(testConfig("vd"))
	cons := r.newCore(testConfig("dc"))

	var prodDone, consDone sim.Time
	consJob := &Job{
		Label: "dc/f0", FlowID: 1, InBytes: 64 << 10,
		OnDone: func() { consDone = r.eng.Now() },
	}
	if err := cons.Submit(0, consJob); err != nil {
		t.Fatal(err)
	}
	prodJob := &Job{
		Label: "vd/f0", FlowID: 1, InBytes: 8 << 10, OutBytes: 64 << 10,
		InFromDRAM: true, OutLane: cons.Lane(0),
		OnDone: func() { prodDone = r.eng.Now() },
	}
	if err := prod.Submit(0, prodJob); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(sim.Second)
	if prodDone == 0 || consDone == 0 {
		t.Fatalf("chain stalled: prod=%v cons=%v", prodDone, consDone)
	}
	if consDone < prodDone {
		t.Errorf("consumer finished before producer: %v < %v", consDone, prodDone)
	}
	// Pipelined: total should be far less than the sum of both stages
	// run serially through memory (~65us each + memory).
	if consDone > 250*sim.Microsecond {
		t.Errorf("chain took %v, expected pipelined overlap", consDone)
	}
	// No DRAM traffic for the intermediate data: only the 8KB input.
	if got := r.mem.Stats().BytesMoved; got > 9<<10 {
		t.Errorf("DRAM moved %d bytes; chain should bypass memory", got)
	}
}

func TestChainBackpressure(t *testing.T) {
	// A slow consumer must throttle the producer through the 2KB lane.
	r := newRig()
	pCfg := testConfig("fast")
	pCfg.ThroughputBPS = 10e9
	prod := r.newCore(pCfg)
	cCfg := testConfig("slow")
	cCfg.ThroughputBPS = 0.1e9
	cons := r.newCore(cCfg)

	var consDone sim.Time
	cj := &Job{Label: "c", InBytes: 64 << 10, OnDone: func() { consDone = r.eng.Now() }}
	if err := cons.Submit(0, cj); err != nil {
		t.Fatal(err)
	}
	pj := &Job{Label: "p", OutBytes: 64 << 10, OutLane: cons.Lane(0)}
	if err := prod.Submit(0, pj); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(10 * sim.Second)
	if consDone == 0 {
		t.Fatal("chain deadlocked under backpressure")
	}
	// Consumer rate dominates: 64KB at 0.1 GB/s = 655us.
	if consDone < 600*sim.Microsecond {
		t.Errorf("completed at %v, faster than the slow consumer allows", consDone)
	}
	prod.FinalizeAccounting()
	if prod.Stats().StallFlow == 0 {
		t.Error("fast producer should have accumulated flow stalls")
	}
	// Buffer occupancy may never exceed the lane capacity.
	if cons.Lane(0).maxUsed > cons.Lane(0).Capacity() {
		t.Errorf("lane overflow: used %d of %d", cons.Lane(0).maxUsed, cons.Lane(0).Capacity())
	}
}

func TestFCFSServesInOrder(t *testing.T) {
	r := newRig()
	c := r.newCore(testConfig("vd"))
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		j := &Job{Label: name, InBytes: 4 << 10, OutBytes: 4 << 10, InFromDRAM: true, OutToDRAM: true,
			OnDone: func() { order = append(order, name) }}
		if err := c.Submit(0, j); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run(sim.Second)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("order = %v", order)
	}
}

func TestEDFPrefersEarlierDeadline(t *testing.T) {
	// Lane 0's job is submitted first in each case: EDF still finishes
	// the earlier deadline first, and the earlier lane on a tie.
	for _, tc := range []struct {
		deadlines [2]sim.Time
		first     int
	}{
		{[2]sim.Time{100 * sim.Millisecond, sim.Millisecond}, 1},
		{[2]sim.Time{10 * sim.Millisecond, 10 * sim.Millisecond}, 0},
	} {
		r := newRig()
		cfg := testConfig("vd")
		cfg.Lanes = 2
		cfg.Policy = EDF
		c := r.newCore(cfg)
		var order []int
		for lane, dl := range tc.deadlines {
			lane := lane
			j := &Job{Label: "f", InBytes: 16 << 10, OutBytes: 16 << 10,
				InFromDRAM: true, OutToDRAM: true, Deadline: dl,
				OnDone: func() { order = append(order, lane) }}
			if err := c.Submit(lane, j); err != nil {
				t.Fatal(err)
			}
		}
		r.eng.Run(sim.Second)
		if len(order) != 2 || order[0] != tc.first {
			t.Errorf("deadlines %v: order = %v, want lane %d first", tc.deadlines, order, tc.first)
		}
	}
}

func TestEDFInterleavesAtSubframes(t *testing.T) {
	// Two equal flows on two lanes: EDF with advancing deadlines should
	// context switch rather than run one to completion.
	r := newRig()
	cfg := testConfig("vd")
	cfg.Lanes = 2
	cfg.Policy = EDF
	cfg.CtxSwitch = 100 * sim.Nanosecond
	c := r.newCore(cfg)
	var first, second sim.Time
	j0 := &Job{Label: "f0", InBytes: 32 << 10, OutBytes: 32 << 10, InFromDRAM: true, OutToDRAM: true,
		Deadline: 1 * sim.Millisecond, OnDone: func() { first = r.eng.Now() }}
	j1 := &Job{Label: "f1", InBytes: 32 << 10, OutBytes: 32 << 10, InFromDRAM: true, OutToDRAM: true,
		Deadline: 1*sim.Millisecond + 1, OnDone: func() { second = r.eng.Now() }}
	if err := c.Submit(0, j0); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1, j1); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(sim.Second)
	if first == 0 || second == 0 {
		t.Fatal("jobs did not finish")
	}
	if c.Stats().CtxSwitch == 0 {
		t.Error("EDF with two lanes should context switch")
	}
}

func TestNoHoldWhenWalkFreesCurrentHead(t *testing.T) {
	// A flow chains the IP into another lane of itself: producers on
	// lane 0 feed consumers on lane 1. With no OutConsumer set, p2 fills
	// lane 1 for c2 while c1, lane 1's head, waits on its DRAM writes (a
	// slow memory), then parks on its next output chunk. When c1 retires, the walk finds p2
	// blocked before lane 1's drain into c2 frees room for it. p2 is
	// runnable again by the end of the walk, so the patience hold must
	// not idle the core: it dispatches at once.
	r := newRig()
	mcfg := dram.DefaultConfig()
	mcfg.TREFI = 0
	mcfg.ChannelBPS = 1e8
	r.mem = dram.NewController(r.eng, mcfg, r.acct)
	cfg := testConfig("ip")
	cfg.Lanes = 2
	cfg.Policy = EDF
	cfg.CtxSwitch = 100 * sim.Nanosecond
	cfg.SwitchPatience = 5 * sim.Microsecond
	c := r.newCore(cfg)
	var c2Done sim.Time
	lane1Full, dispatched := false, false
	c1 := &Job{Label: "c1", InBytes: 2 << 10, OutBytes: 2 << 10, OutToDRAM: true, Deadline: sim.Millisecond,
		OnDone: func() {
			lane1Full = c.Lane(1).Used() == c.Lane(1).Capacity()
			r.eng.At(r.eng.Now()+1, func() { dispatched = c.active != nil })
		}}
	c2 := &Job{Label: "c2", InBytes: 4 << 10, Deadline: 2 * sim.Millisecond,
		OnDone: func() { c2Done = r.eng.Now() }}
	p1 := &Job{Label: "p1", OutBytes: 2 << 10, OutLane: c.Lane(1), Deadline: sim.Millisecond}
	p2 := &Job{Label: "p2", OutBytes: 4 << 10, OutLane: c.Lane(1), Deadline: 2 * sim.Millisecond}
	for _, s := range []struct {
		lane int
		j    *Job
	}{{1, c1}, {1, c2}, {0, p1}, {0, p2}} {
		if err := c.Submit(s.lane, s.j); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run(sim.Second)
	if c2Done == 0 {
		t.Fatal("chain did not finish")
	}
	if !lane1Full {
		t.Fatal("p2 did not fill lane 1 before c1 retired; the case is not exercised")
	}
	if !dispatched {
		t.Error("the core held although the walk left its current head runnable")
	}
}

func TestFCFSSingleContextBlocksOnHead(t *testing.T) {
	// FCFS head blocked on flow-buffer data must not let a later job
	// overtake it (single hardware context).
	r := newRig()
	c := r.newCore(testConfig("vd"))
	var order []string
	blocked := &Job{Label: "blocked", InBytes: 16 << 10, OutBytes: 16 << 10, OutToDRAM: true,
		OnDone: func() { order = append(order, "blocked") }}
	ready := &Job{Label: "ready", InBytes: 4 << 10, OutBytes: 4 << 10, InFromDRAM: true, OutToDRAM: true,
		OnDone: func() { order = append(order, "ready") }}
	if err := c.Submit(0, blocked); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(0, ready); err != nil {
		t.Fatal(err)
	}
	// Feed the blocked job's lane after 1ms.
	feeder := r.newCore(testConfig("feeder"))
	fj := &Job{Label: "feed", OutBytes: 16 << 10, OutLane: c.Lane(0)}
	r.eng.At(sim.Millisecond, func() {
		if err := feeder.Submit(0, fj); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run(sim.Second)
	if len(order) != 2 || order[0] != "blocked" {
		t.Errorf("order = %v; FCFS must not reorder past a blocked head", order)
	}
}

func TestPerFrameOverheadCharged(t *testing.T) {
	run := func(perFrame sim.Time) sim.Time {
		r := newRig()
		cfg := testConfig("vd")
		cfg.PerFrame = perFrame
		c := r.newCore(cfg)
		var done sim.Time
		j := &Job{Label: "f", InBytes: 4 << 10, OutBytes: 4 << 10, InFromDRAM: true, OutToDRAM: true,
			OnDone: func() { done = r.eng.Now() }}
		if err := c.Submit(0, j); err != nil {
			t.Fatal(err)
		}
		r.eng.Run(sim.Second)
		return done
	}
	base := run(0)
	withOverhead := run(500 * sim.Microsecond)
	if withOverhead-base < 400*sim.Microsecond {
		t.Errorf("per-frame overhead not visible: %v vs %v", base, withOverhead)
	}
}

func TestUtilizationDropsWithMemoryContention(t *testing.T) {
	// One core alone vs. the same core with a bandwidth hog: utilization
	// (compute / active) should drop under contention (Figure 3b).
	util := func(withHog bool) float64 {
		r := newRig()
		c := r.newCore(testConfig("vd"))
		var pump func(i int)
		pump = func(i int) {
			j := &Job{Label: "f", InBytes: 256 << 10, OutBytes: 256 << 10,
				InFromDRAM: true, InAddr: uint64(i * (1 << 20)), OutToDRAM: true, OutAddr: uint64(i*(1<<20) + (512 << 10)),
				OnDone: func() { pump(i + 1) }}
			if c.Submit(0, j) != nil {
				t.Error("submit failed")
			}
		}
		pump(0)
		if withHog {
			// Saturate DRAM with an external stream.
			var hog func(addr uint64)
			hog = func(addr uint64) {
				r.mem.Submit(dram.Request{Addr: addr, Bytes: 8 << 10, OnDone: func() {
					hog(addr + 8<<10)
				}})
			}
			for i := 0; i < 16; i++ {
				hog(uint64(0x4000000 + i*(64<<10)))
			}
		}
		r.eng.Run(20 * sim.Millisecond)
		c.FinalizeAccounting()
		return c.Stats().Utilization()
	}
	alone := util(false)
	contended := util(true)
	if alone < 0.5 {
		t.Errorf("uncontended utilization %v too low", alone)
	}
	if contended >= alone {
		t.Errorf("contention should reduce utilization: alone=%v contended=%v", alone, contended)
	}
}

func TestEnergyAccrual(t *testing.T) {
	r := newRig()
	c := r.newCore(testConfig("vd"))
	j := &Job{Label: "f", InBytes: 64 << 10, OutBytes: 64 << 10, InFromDRAM: true, OutToDRAM: true}
	if err := c.Submit(0, j); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(10 * sim.Millisecond)
	c.FinalizeAccounting()
	if r.acct.Get(energy.IPActive) <= 0 {
		t.Error("active energy should accrue")
	}
	if r.acct.Get(energy.IPIdle) <= 0 {
		t.Error("idle energy should accrue after the job finishes")
	}
}

func TestFlowBufferEnergyCharged(t *testing.T) {
	r := newRig()
	prod := r.newCore(testConfig("p"))
	cons := r.newCore(testConfig("c"))
	cj := &Job{Label: "c", InBytes: 16 << 10}
	if err := cons.Submit(0, cj); err != nil {
		t.Fatal(err)
	}
	pj := &Job{Label: "p", OutBytes: 16 << 10, OutLane: cons.Lane(0)}
	if err := prod.Submit(0, pj); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(sim.Second)
	if r.acct.Get(energy.FlowBuffer) <= 0 {
		t.Error("flow-buffer energy should be charged on lane traffic")
	}
}

func TestStatsActiveTimeAndUtilization(t *testing.T) {
	s := Stats{Compute: 60, StallMem: 30, StallFlow: 10}
	if s.ActiveTime() != 100 {
		t.Errorf("ActiveTime = %v", s.ActiveTime())
	}
	if s.Utilization() != 0.6 {
		t.Errorf("Utilization = %v", s.Utilization())
	}
	var zero Stats
	if zero.Utilization() != 0 {
		t.Error("zero stats utilization should be 0")
	}
}

func TestSmallBufferSlowerThanLarge(t *testing.T) {
	// Figure 14a: shrinking the per-lane buffer below the sub-frame size
	// lengthens the flow time.
	flowTime := func(buf int) sim.Time {
		r := newRig()
		pCfg := testConfig("p")
		pCfg.LaneBufBytes = buf
		cCfg := testConfig("c")
		cCfg.LaneBufBytes = buf
		prod := r.newCore(pCfg)
		cons := r.newCore(cCfg)
		var done sim.Time
		cj := &Job{Label: "c", InBytes: 256 << 10, OnDone: func() { done = r.eng.Now() }}
		if err := cons.Submit(0, cj); err != nil {
			t.Fatal(err)
		}
		pj := &Job{Label: "p", InBytes: 16 << 10, InFromDRAM: true, OutBytes: 256 << 10, OutLane: cons.Lane(0)}
		if err := prod.Submit(0, pj); err != nil {
			t.Fatal(err)
		}
		r.eng.Run(10 * sim.Second)
		if done == 0 {
			t.Fatalf("buffer %d deadlocked", buf)
		}
		return done
	}
	small := flowTime(512)
	large := flowTime(8 << 10)
	if small <= large {
		t.Errorf("small buffer (%v) should be slower than large (%v)", small, large)
	}
}

func TestLaneAccessors(t *testing.T) {
	r := newRig()
	c := r.newCore(testConfig("vd"))
	l := c.Lane(0)
	if l.Index() != 0 || l.Capacity() != 2<<10 || l.Used() != 0 || l.QueueLen() != 0 {
		t.Error("fresh lane accessors wrong")
	}
	if c.Lanes() != 1 {
		t.Errorf("Lanes = %d", c.Lanes())
	}
	if c.Config().Name != "vd" {
		t.Error("Config accessor wrong")
	}
}

func TestPolicyString(t *testing.T) {
	if FCFS.String() != "FCFS" || EDF.String() != "EDF" {
		t.Error("policy names wrong")
	}
}

// Property: any single DRAM-to-DRAM job completes, moves exactly its
// bytes, and finishes no earlier than its pure compute time.
func TestJobCompletionProperty(t *testing.T) {
	f := func(inRaw, outRaw uint16) bool {
		in := int(inRaw)%(128<<10) + 1
		out := int(outRaw)%(128<<10) + 1
		r := newRig()
		c := r.newCore(testConfig("vd"))
		var done sim.Time = -1
		j := &Job{Label: "f", InBytes: in, OutBytes: out, InFromDRAM: true, OutToDRAM: true,
			OnDone: func() { done = r.eng.Now() }}
		if err := c.Submit(0, j); err != nil {
			return false
		}
		r.eng.Run(10 * sim.Second)
		if done < 0 {
			return false
		}
		basis := in
		if out > basis {
			basis = out
		}
		minCompute := sim.BytesOver(int64(basis), c.Config().ThroughputBPS)
		return done >= minCompute &&
			c.Stats().BytesIn == uint64(in) && c.Stats().BytesOut == uint64(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: chained transfer conserves bytes for arbitrary frame sizes.
func TestChainConservationProperty(t *testing.T) {
	f := func(sizeRaw uint16) bool {
		size := int(sizeRaw)%(64<<10) + 1
		r := newRig()
		prod := r.newCore(testConfig("p"))
		cons := r.newCore(testConfig("c"))
		okC := false
		cj := &Job{Label: "c", InBytes: size, OnDone: func() { okC = true }}
		if cons.Submit(0, cj) != nil {
			return false
		}
		pj := &Job{Label: "p", OutBytes: size, OutLane: cons.Lane(0)}
		if prod.Submit(0, pj) != nil {
			return false
		}
		r.eng.Run(10 * sim.Second)
		return okC && cons.Stats().BytesIn == uint64(size) && prod.Stats().BytesOut == uint64(size) &&
			cons.Lane(0).Used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNotBeforePacesSource(t *testing.T) {
	r := newRig()
	cfg := testConfig("cam")
	cfg.Kind = CAM
	cfg.ThroughputBPS = 100e9 // effectively instant compute
	c := r.newCore(cfg)
	var done sim.Time
	j := &Job{Label: "cap", OutBytes: 4 << 10, OutToDRAM: true,
		NotBefore: 5 * sim.Millisecond,
		OnDone:    func() { done = r.eng.Now() }}
	if err := c.Submit(0, j); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(sim.Second)
	if done < 5*sim.Millisecond {
		t.Errorf("job started before NotBefore: done at %v", done)
	}
	if done > 6*sim.Millisecond {
		t.Errorf("job should start promptly at NotBefore, done at %v", done)
	}
	c.FinalizeAccounting()
	// Waiting for NotBefore is idleness, not a stall.
	if c.Stats().StallFlow > sim.Millisecond {
		t.Errorf("NotBefore wait miscounted as stall: %v", c.Stats().StallFlow)
	}
}

func TestNotBeforeDoesNotBlockOtherLanesUnderEDF(t *testing.T) {
	r := newRig()
	cfg := testConfig("vd")
	cfg.Lanes = 2
	cfg.Policy = EDF
	c := r.newCore(cfg)
	var earlyDone sim.Time
	future := &Job{Label: "future", InBytes: 4 << 10, OutBytes: 4 << 10, InFromDRAM: true, OutToDRAM: true,
		NotBefore: 100 * sim.Millisecond, Deadline: 101 * sim.Millisecond}
	now := &Job{Label: "now", InBytes: 4 << 10, OutBytes: 4 << 10, InFromDRAM: true, OutToDRAM: true,
		Deadline: 200 * sim.Millisecond, OnDone: func() { earlyDone = r.eng.Now() }}
	if err := c.Submit(0, future); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1, now); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(sim.Second)
	if earlyDone == 0 || earlyDone > 10*sim.Millisecond {
		t.Errorf("ready job should not wait behind a future job: done %v", earlyDone)
	}
}

func TestRRPolicyRotatesFairly(t *testing.T) {
	r := newRig()
	cfg := testConfig("vd")
	cfg.Lanes = 2
	cfg.Policy = RR
	cfg.CtxSwitch = 100 * sim.Nanosecond
	c := r.newCore(cfg)
	// 512 sub-frames per job: eight quanta on each lane.
	const chunks = 512
	var done [2]sim.Time
	for lane := 0; lane < 2; lane++ {
		lane := lane
		j := &Job{Label: "f", InBytes: chunks << 10, OutBytes: chunks << 10,
			InFromDRAM: true, OutToDRAM: true,
			// Deadlines would make EDF serve lane 0 first entirely;
			// RR must interleave regardless.
			Deadline: sim.Time(1+lane) * sim.Millisecond,
			OnDone:   func() { done[lane] = r.eng.Now() }}
		if err := c.Submit(lane, j); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run(sim.Second)
	if done[0] == 0 || done[1] == 0 {
		t.Fatal("jobs did not finish")
	}
	// Interleaved service: completion times within ~25% of each other.
	gap := done[1] - done[0]
	if gap < 0 {
		gap = -gap
	}
	if float64(gap) > 0.25*float64(done[1]) {
		t.Errorf("RR should interleave: done at %v and %v", done[0], done[1])
	}
	// Two lanes alternate at least once per quantum until both finish.
	if want := uint64(2*chunks/rrQuantum - 1); c.Stats().CtxSwitch < want {
		t.Errorf("RR with quantum %d over %d chunks per lane should switch at least %d times, got %d",
			rrQuantum, chunks, want, c.Stats().CtxSwitch)
	}
}

func TestPriorityPolicyFavorsLowLane(t *testing.T) {
	r := newRig()
	cfg := testConfig("vd")
	cfg.Lanes = 2
	cfg.Policy = Priority
	c := r.newCore(cfg)
	var order []int
	mk := func(lane int) *Job {
		return &Job{Label: "f", InBytes: 32 << 10, OutBytes: 32 << 10,
			InFromDRAM: true, OutToDRAM: true,
			// Earlier deadline on the high lane: Priority must ignore it.
			Deadline: sim.Time(10-lane) * sim.Millisecond,
			OnDone:   func() { order = append(order, lane) }}
	}
	if err := c.Submit(1, mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(0, mk(0)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(sim.Second)
	if len(order) != 2 || order[0] != 0 {
		t.Errorf("order = %v, want lane 0 first", order)
	}
}

func TestPolicyStringsAll(t *testing.T) {
	if RR.String() != "RR" || Priority.String() != "Priority" {
		t.Error("policy names wrong")
	}
}

func TestTracerHooks(t *testing.T) {
	r := newRig()
	rec := telemetry.NewPhaseRecorder()
	cfg := testConfig("vd")
	cfg.Spans = rec
	c := r.newCore(cfg)
	done := false
	j := &Job{Label: "f0", InBytes: 8 << 10, OutBytes: 8 << 10,
		InFromDRAM: true, OutToDRAM: true, OnDone: func() { done = true }}
	if err := c.Submit(0, j); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(sim.Second)
	c.FinalizeAccounting()
	if !done {
		t.Fatal("job did not finish")
	}
	if rec.PhaseLen() == 0 {
		t.Fatal("no phase timeline recorded")
	}
	var chrome bytes.Buffer
	if err := rec.WritePhaseChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	sawCompute, sawMark := false, false
	for _, e := range evs {
		switch {
		case e.Ph == "M" && e.Args["name"] != "vd":
			t.Errorf("phase track %v, want only the core's own", e.Args["name"])
		case e.Ph == "X" && e.Name == "compute" && e.Dur > 0:
			sawCompute = true
		case e.Ph == "i" && e.Name == "f0":
			sawMark = true
		}
	}
	if !sawCompute || !sawMark {
		t.Error("expected compute spans and a frame mark")
	}
}
