package cpu

import (
	"testing"
	"testing/quick"

	"github.com/vipsim/vip/internal/energy"
	"github.com/vipsim/vip/internal/sim"
)

func newComplex(t *testing.T, mutate func(*Config)) (*sim.Engine, *Complex, *energy.Account) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	acct := &energy.Account{}
	return eng, New(eng, cfg, acct), acct
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Cores != 4 {
		t.Errorf("Cores = %d, want 4 (Table 3)", cfg.Cores)
	}
	if err := cfg.validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	for i, mut := range []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.LoadFactor = -1 },
		func(c *Config) { c.IdleWake = -1 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Cores = 0
	New(sim.NewEngine(), cfg, &energy.Account{})
}

func TestTaskExecution(t *testing.T) {
	eng, cx, _ := newComplex(t, nil)
	var done sim.Time
	cx.Exec(0, &Task{Label: "drv", Duration: 40 * sim.Microsecond,
		OnDone: func() { done = eng.Now() }})
	eng.Run(sim.Second)
	// First task at t=0: no idle gap, no wake penalty.
	if done != 40*sim.Microsecond {
		t.Errorf("done at %v, want 40us", done)
	}
	st := cx.Stats()
	// One instruction per ns of task time.
	if st.Tasks != 1 || st.Instructions != 40_000 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWakeLatencyFromIdle(t *testing.T) {
	eng, cx, _ := newComplex(t, nil)
	var done sim.Time
	// Submit after a short idle gap (under the deep-sleep threshold).
	eng.At(500*sim.Microsecond, func() {
		cx.Exec(0, &Task{Duration: 10 * sim.Microsecond, OnDone: func() { done = eng.Now() }})
	})
	eng.Run(sim.Second)
	want := 500*sim.Microsecond + cx.Config().IdleWake + 10*sim.Microsecond
	if done != want {
		t.Errorf("done at %v, want %v", done, want)
	}
	if cx.Stats().Wakes != 1 || cx.Stats().DeepWakes != 0 {
		t.Errorf("wakes = %+v", cx.Stats())
	}
}

func TestWakeLatencyFromDeepSleep(t *testing.T) {
	eng, cx, _ := newComplex(t, nil)
	var done sim.Time
	// Gap well beyond SleepAfter: core must pay the deep-sleep resume.
	eng.At(10*sim.Millisecond, func() {
		cx.Exec(0, &Task{Duration: 10 * sim.Microsecond, OnDone: func() { done = eng.Now() }})
	})
	eng.Run(sim.Second)
	want := 10*sim.Millisecond + cx.Config().SleepWake + 10*sim.Microsecond
	if done != want {
		t.Errorf("done at %v, want %v", done, want)
	}
	if cx.Stats().DeepWakes != 1 {
		t.Errorf("DeepWakes = %d, want 1", cx.Stats().DeepWakes)
	}
}

func TestDeepSleepSavesEnergy(t *testing.T) {
	// A core left alone for 100ms should burn far less than one poked
	// every millisecond (the paper's core argument for frame bursts).
	run := func(pokePeriod sim.Time) float64 {
		eng := sim.NewEngine()
		acct := &energy.Account{}
		cx := New(eng, DefaultConfig(), acct)
		if pokePeriod > 0 {
			var poke func()
			poke = func() {
				cx.Exec(0, &Task{Duration: 20 * sim.Microsecond})
				if eng.Now()+pokePeriod < 100*sim.Millisecond {
					eng.After(pokePeriod, poke)
				}
			}
			poke()
		}
		eng.Run(100 * sim.Millisecond)
		cx.FinalizeAccounting()
		return acct.TotalPrefix("cpu.")
	}
	quiet := run(0)
	poked := run(sim.Millisecond)
	if poked < quiet*2 {
		t.Errorf("frequent poking (%v J) should cost much more than sleeping (%v J)", poked, quiet)
	}
}

func TestFIFOPerCore(t *testing.T) {
	eng, cx, _ := newComplex(t, nil)
	var order []string
	for _, n := range []string{"a", "b", "c"} {
		n := n
		cx.Exec(2, &Task{Duration: sim.Microsecond, OnDone: func() { order = append(order, n) }})
	}
	eng.Run(sim.Second)
	if len(order) != 3 || order[0] != "a" || order[2] != "c" {
		t.Errorf("order = %v", order)
	}
}

func TestCoreAffinityHint(t *testing.T) {
	eng, cx, _ := newComplex(t, func(c *Config) { c.LoadFactor = 0 })
	var t0, t1 sim.Time
	// Same hint serializes; different hints parallelize.
	cx.Exec(0, &Task{Duration: sim.Millisecond, OnDone: func() { t0 = eng.Now() }})
	cx.Exec(1, &Task{Duration: sim.Millisecond, OnDone: func() { t1 = eng.Now() }})
	eng.Run(sim.Second)
	if t0 != sim.Millisecond || t1 != sim.Millisecond {
		t.Errorf("different cores should run in parallel: %v %v", t0, t1)
	}
	if cx.NumCores() != 4 {
		t.Errorf("NumCores = %d", cx.NumCores())
	}
}

func TestNegativeHintWraps(t *testing.T) {
	eng, cx, _ := newComplex(t, nil)
	fired := false
	cx.Exec(-3, &Task{Duration: sim.Microsecond, OnDone: func() { fired = true }})
	eng.Run(sim.Second)
	if !fired {
		t.Error("negative hint should still execute")
	}
}

func TestLoadInflation(t *testing.T) {
	// With a non-zero load factor, three stacked tasks take longer than
	// 3x a single task.
	total := func(lf float64) sim.Time {
		eng := sim.NewEngine()
		cx := New(eng, func() Config { c := DefaultConfig(); c.LoadFactor = lf; return c }(), &energy.Account{})
		var last sim.Time
		for i := 0; i < 3; i++ {
			cx.Exec(0, &Task{Duration: 100 * sim.Microsecond, OnDone: func() { last = eng.Now() }})
		}
		eng.Run(sim.Second)
		return last
	}
	flat := total(0)
	loaded := total(0.2)
	if loaded <= flat {
		t.Errorf("load factor should inflate: flat=%v loaded=%v", flat, loaded)
	}
}

func TestInstructionInflationTracksTime(t *testing.T) {
	eng, cx, _ := newComplex(t, func(c *Config) { c.LoadFactor = 0.5 })
	for i := 0; i < 2; i++ {
		cx.Exec(0, &Task{Duration: 100 * sim.Microsecond})
	}
	eng.Run(sim.Second)
	// First task inflated by one queued task: 1.5x instructions.
	if got := cx.Stats().Instructions; got != 150_000+100_000 {
		t.Errorf("Instructions = %d, want 250000", got)
	}
}

func TestInterruptCounting(t *testing.T) {
	eng, cx, _ := newComplex(t, nil)
	served := 0
	for i := 0; i < 5; i++ {
		cx.Interrupt(0, &Task{Duration: 15 * sim.Microsecond, OnDone: func() { served++ }})
	}
	cx.Exec(0, &Task{Duration: sim.Microsecond})
	eng.Run(sim.Second)
	if cx.Stats().Interrupts != 5 {
		t.Errorf("Interrupts = %d, want 5", cx.Stats().Interrupts)
	}
	if served != 5 {
		t.Errorf("served = %d, want 5", served)
	}
	if cx.Stats().Tasks != 6 {
		t.Errorf("Tasks = %d, want 6", cx.Stats().Tasks)
	}
}

func TestInvalidTaskPanics(t *testing.T) {
	_, cx, _ := newComplex(t, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cx.Exec(0, &Task{Duration: -1})
}

func TestFinalizeAccountingIdempotent(t *testing.T) {
	eng, cx, acct := newComplex(t, nil)
	eng.Run(50 * sim.Millisecond)
	cx.FinalizeAccounting()
	e1 := acct.TotalPrefix("cpu.")
	cx.FinalizeAccounting()
	if acct.TotalPrefix("cpu.") != e1 {
		t.Error("FinalizeAccounting must be idempotent at one instant")
	}
}

func TestZeroDurationTask(t *testing.T) {
	eng, cx, _ := newComplex(t, nil)
	fired := false
	cx.Exec(0, &Task{Duration: 0, OnDone: func() { fired = true }})
	eng.Run(sim.Second)
	if !fired {
		t.Error("zero-duration task should complete")
	}
	if n := cx.Stats().Instructions; n != 0 {
		t.Errorf("zero-duration task retired %d instructions, want 0", n)
	}
}

// Property: total active time always at least the sum of raw durations.
func TestActiveTimeLowerBoundProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		eng := sim.NewEngine()
		cx := New(eng, DefaultConfig(), &energy.Account{})
		var want sim.Time
		for i, d := range durs {
			dur := sim.Time(d) * sim.Microsecond
			want += dur
			cx.Exec(i, &Task{Duration: dur})
		}
		eng.Run(100 * sim.Second)
		return cx.Stats().ActiveTime >= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: every submitted task eventually runs exactly once.
func TestAllTasksRunProperty(t *testing.T) {
	f := func(n uint8, hints []uint8) bool {
		eng := sim.NewEngine()
		cx := New(eng, DefaultConfig(), &energy.Account{})
		count := int(n%40) + 1
		ran := 0
		for i := 0; i < count; i++ {
			hint := i
			if len(hints) > 0 {
				hint = int(hints[i%len(hints)])
			}
			cx.Exec(hint, &Task{Duration: 10 * sim.Microsecond, OnDone: func() { ran++ }})
		}
		eng.Run(10 * sim.Second)
		return ran == count && cx.Stats().Tasks == uint64(count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
