package core

import (
	"runtime"
	"testing"

	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
)

// TestModelHotPathAllocs pins the allocation discipline of the model's
// per-sub-frame path: DRAM requests, NoC transfers, compute chunks,
// scheduler passes and energy charges allocate nothing, so a run's heap
// allocations grow with frames, not with events. It runs four A5
// players at two lengths and differences them, which leaves out set-up
// and the report. It reads process-wide counters, so it must not run in
// parallel with other tests.
func TestModelHotPathAllocs(t *testing.T) {
	const maxPerEvent = 0.01
	for _, mode := range []platform.Mode{platform.Baseline, platform.VIP} {
		shortMallocs, shortEvents := mallocsPerRun(t, mode, 25*sim.Millisecond)
		longMallocs, longEvents := mallocsPerRun(t, mode, 75*sim.Millisecond)
		events := longEvents - shortEvents
		if events == 0 {
			t.Fatalf("%v: the longer run fired no more events", mode)
		}
		perEvent := float64(int64(longMallocs)-int64(shortMallocs)) / float64(events)
		t.Logf("%v: %d more events, %.4f allocations per event", mode, events, perEvent)
		if perEvent > maxPerEvent {
			t.Errorf("%v: %.4f allocations per simulated event, want <= %v", mode, perEvent, maxPerEvent)
		}
	}
}

// mallocsPerRun reports the heap allocations of one 4×A5 run, set-up and
// report included, and the events it fired.
func mallocsPerRun(t *testing.T, mode platform.Mode, dur sim.Time) (mallocs, events uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := runApps(t, mode, dur, "A5", "A5", "A5", "A5")
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, rep.Sim.EventsFired
}
