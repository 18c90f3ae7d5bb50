package ipcore

import (
	"fmt"
	"testing"

	"github.com/vipsim/vip/internal/fault"
	"github.com/vipsim/vip/internal/sim"
)

// hangInjector draws lane hangs at the given rate (1 = every compute
// start; note a rate-1 transient injector re-hangs on every retry, so
// completion tests must use rate < 1). A transient hang lasts ten
// watchdog periods on average, so the watchdog clears most of them.
func hangInjector(t *testing.T, rate float64, permanent bool) *fault.Injector {
	t.Helper()
	cfg := fault.Config{Seed: 7, LaneHangMean: 10 * watchdogPeriod}
	if permanent {
		cfg.PermanentRate = rate
	} else {
		cfg.LaneHangRate = rate
	}
	inj, err := fault.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func dramJob(label string) *Job {
	return &Job{Label: label, InBytes: 1 << 10, InFromDRAM: true,
		OutBytes: 1 << 10, OutToDRAM: true, OutAddr: 1 << 20}
}

// TestWatchdogClearsTransientHang: a transient hang with a watchdog
// shorter than the hang's mean duration is cleared by the lane reset,
// and the job completes.
func TestWatchdogClearsTransientHang(t *testing.T) {
	r := newRig()
	cfg := testConfig("vd")
	// Rate 0.5: the job hangs on some retries but completes eventually.
	cfg.Injector = hangInjector(t, 0.5, false)
	cfg.Recovery = true
	c := r.newCore(cfg)

	// A batch of jobs: at rate 0.5 some draws hang, and every hang must
	// be cleared by the watchdog for all jobs to finish.
	const n = 16
	done := 0
	for i := 0; i < n; i++ {
		j := dramJob(fmt.Sprintf("t%d", i))
		j.OnDone = func() { done++ }
		if err := c.Submit(0, j); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run(sim.Second)
	if done != n {
		t.Fatalf("only %d/%d jobs completed past transient hangs", done, n)
	}
	st := c.Stats()
	if st.Hangs == 0 {
		t.Error("no hang recorded")
	}
	if st.WatchdogFires == 0 || st.LaneResets == 0 {
		t.Errorf("watchdog did not fire/reset: %+v", st)
	}
	if st.RecoveryCount == 0 || st.RecoveryTime <= 0 {
		t.Errorf("recovery latency not recorded: %+v", st)
	}
}

// TestPermanentHangQuarantines: permanent hangs survive lane resets, so
// after quarantineResets failed resets the lane is fenced off and the
// fault handler receives the stranded jobs; repair brings it back.
func TestPermanentHangQuarantines(t *testing.T) {
	r := newRig()
	cfg := testConfig("vd")
	cfg.Injector = hangInjector(t, 1, true)
	cfg.Recovery = true
	c := r.newCore(cfg)

	var gotLane = -1
	var stranded []*Job
	c.SetLaneFaultHandler(func(lane int, jobs []*Job) {
		gotLane = lane
		stranded = append(stranded, jobs...)
		// Do what the driver does: abort the stranded jobs so the lane
		// comes back idle after repair (otherwise the rate-1 injector
		// re-hangs it immediately).
		for _, sj := range jobs {
			c.Abort(sj)
		}
	})
	j := dramJob("p0")
	if err := c.Submit(0, j); err != nil {
		t.Fatal(err)
	}
	// The hang starts within a millisecond of submission; each failed
	// reset takes one watchdog period plus the reset pulse.
	quarantined := quarantineResets*(watchdogPeriod+resetTime) + sim.Millisecond
	r.eng.Run(quarantined)
	st := c.Stats()
	if st.Quarantines == 0 {
		t.Fatalf("lane never quarantined: %+v", st)
	}
	if st.WatchdogFires != quarantineResets || st.LaneResets != quarantineResets {
		t.Errorf("quarantined after %d fires/%d resets, want %d each", st.WatchdogFires, st.LaneResets, quarantineResets)
	}
	if gotLane != 0 {
		t.Errorf("fault handler got lane %d, want 0", gotLane)
	}
	if len(stranded) != 1 || stranded[0] != j {
		t.Errorf("stranded jobs = %v, want the submitted job", stranded)
	}
	if !c.Lane(0).Quarantined() {
		t.Error("lane should still be quarantined before repair")
	}
	r.eng.Run(quarantined + repairTime)
	if c.Lane(0).Quarantined() {
		t.Error("lane not repaired")
	}
	if c.Stats().Repairs == 0 {
		t.Error("repair not counted")
	}
}

// TestAbortReleasesLane: aborting a stuck job lets a subsequent job on
// the same lane run to completion once the hang clears.
func TestAbortReleasesLane(t *testing.T) {
	r := newRig()
	cfg := testConfig("vd")
	// Rate-1 permanent hangs and Recovery off: no watchdog, so the
	// driver-level abort is the only rescue.
	cfg.Injector = hangInjector(t, 1, true)
	c := r.newCore(cfg)

	j1 := dramJob("a0")
	if err := c.Submit(0, j1); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(sim.Millisecond)
	if j1.Done() {
		t.Fatal("job should be stuck on the hung lane")
	}
	c.Abort(j1)
	if !j1.Aborted() || !j1.Done() {
		t.Error("abort did not mark the job")
	}
	if c.Stats().Aborts != 1 {
		t.Errorf("aborts = %d, want 1", c.Stats().Aborts)
	}
	// The lane is still hung (permanent, no watchdog): a fresh job must
	// not run. This pins runnable()'s faulted() guard.
	j2 := dramJob("a1")
	if err := c.Submit(0, j2); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(2 * sim.Millisecond)
	if j2.Done() {
		t.Error("job ran on a hung lane")
	}
}

// TestFaultFreeStatsOmitEmpty: without faults the new Stats fields stay
// zero so the JSON report shape is unchanged.
func TestFaultFreeStatsOmitEmpty(t *testing.T) {
	r := newRig()
	c := r.newCore(testConfig("vd"))
	done := false
	j := dramJob("f0")
	j.OnDone = func() { done = true }
	if err := c.Submit(0, j); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(10 * sim.Millisecond)
	if !done {
		t.Fatal("job did not complete")
	}
	st := c.Stats()
	if st.Hangs != 0 || st.WatchdogFires != 0 || st.LaneResets != 0 ||
		st.Quarantines != 0 || st.Repairs != 0 || st.Aborts != 0 || st.RecoveryCount != 0 {
		t.Errorf("fault counters moved on a fault-free run: %+v", st)
	}
}
