// Package cpu models the host CPU complex of the handheld platform: the
// in-order cores that run the Android driver stack, handle IP completion
// interrupts, and pay for it in energy. The model captures exactly the
// effects the paper measures in §2–3: per-frame driver work, interrupt
// handling cost, queueing across a small number of cores, and the lost
// opportunity to enter deep sleep states when the CPU is poked for every
// frame.
//
// Time is carried by Task values created by the orchestration layer
// (driver setup, interrupt service routines, app frame generation), and
// instruction counts derive from it; the cores execute them FIFO with a
// load-dependent inflation that stands in for scheduler and cache
// contention when many driver invocations pile up.
package cpu

import (
	"fmt"

	"github.com/vipsim/vip/internal/energy"
	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/telemetry"
)

// Config describes the CPU complex. DefaultConfig matches Table 3's
// 4-core in-order processor.
type Config struct {
	Cores int

	// Power by state, per core.
	ActiveW float64 // running driver/app code
	IdleW   float64 // clock-gated shallow idle (WFI)
	SleepW  float64 // deep sleep (power-gated)

	// IdleWake and SleepWake are resume latencies from each state.
	IdleWake  sim.Time
	SleepWake sim.Time
	// SleepAfter is the idle residency after which the governor drops
	// the core into deep sleep.
	SleepAfter sim.Time

	// LoadFactor inflates a task's duration by LoadFactor per task
	// already queued behind the core (scheduler + cache contention).
	LoadFactor float64

	// Spans, when it records the phase category, receives per-core task
	// timelines.
	Spans *telemetry.Recorder

	// Metrics, when non-nil, receives the complex's gauges (busy
	// fraction, sleep residency, run-queue depth, interrupt counts).
	Metrics *metrics.Registry
}

// DefaultConfig returns the platform CPU: 4 in-order cores.
func DefaultConfig() Config {
	return Config{
		Cores:      4,
		ActiveW:    0.800,
		IdleW:      0.120,
		SleepW:     0.012,
		IdleWake:   10 * sim.Microsecond,
		SleepWake:  80 * sim.Microsecond,
		SleepAfter: 4 * sim.Millisecond,
		LoadFactor: 0.12,
	}
}

func (c Config) validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cpu: need at least one core")
	}
	if c.LoadFactor < 0 {
		return fmt.Errorf("cpu: load factor must be non-negative")
	}
	if c.IdleWake < 0 || c.SleepWake < 0 || c.SleepAfter < 0 {
		return fmt.Errorf("cpu: latencies must be non-negative")
	}
	return nil
}

// Task is a unit of CPU work: a driver setup, an interrupt service
// routine, or application frame preparation.
type Task struct {
	Label    string
	Duration sim.Time
	OnDone   func()
}

// instrPerNS is the instruction rate of the 1 GHz in-order core: a task
// retires one instruction per ns of its duration.
const instrPerNS = 1

// Stats aggregates complex-wide activity.
type Stats struct {
	ActiveTime   sim.Time // summed across cores (can exceed wall time)
	Tasks        uint64
	Interrupts   uint64
	Instructions uint64
	Wakes        uint64 // idle->active transitions
	DeepWakes    uint64 // deep-sleep->active transitions
}

type core struct {
	queue      []*Task
	busy       bool
	kickQueued bool
	idleSince  sim.Time
}

// Complex is the multi-core CPU instance.
type Complex struct {
	eng   *sim.Engine
	cfg   Config
	acct  *energy.Account
	cores []*core
	stats Stats
	// phases is cfg.Spans when it records the phase category, else nil.
	phases *telemetry.Recorder
}

// New builds a CPU complex; it panics on invalid configuration.
func New(eng *sim.Engine, cfg Config, acct *energy.Account) *Complex {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	cx := &Complex{eng: eng, cfg: cfg, acct: acct, phases: cfg.Spans.Phases()}
	cx.cores = make([]*core, cfg.Cores)
	for i := range cx.cores {
		cx.cores[i] = &core{idleSince: 0}
	}
	cx.registerMetrics()
	return cx
}

// registerMetrics wires the complex's gauges into the metrics registry
// (a no-op when metrics are disabled).
func (cx *Complex) registerMetrics() {
	reg := cx.cfg.Metrics
	if !reg.Enabled() {
		return
	}
	reg.Gauge("cpu.interrupts_total", func() float64 { return float64(cx.stats.Interrupts) })
	reg.Gauge("cpu.wakes_total", func() float64 { return float64(cx.stats.Wakes) })
	reg.Gauge("cpu.deep_wakes_total", func() float64 { return float64(cx.stats.DeepWakes) })
	reg.Gauge("cpu.instructions_total", func() float64 { return float64(cx.stats.Instructions) })
	reg.Gauge("cpu.runq_depth", func() float64 {
		n := 0
		for _, c := range cx.cores {
			n += len(c.queue)
		}
		return float64(n)
	})
	// Instantaneous sleep-state residency: cores whose idle gap already
	// exceeds the governor's deep-sleep threshold.
	reg.Gauge("cpu.deep_sleep_frac", func() float64 {
		now := cx.eng.Now()
		n := 0
		for _, c := range cx.cores {
			if !c.busy && now-c.idleSince > cx.cfg.SleepAfter {
				n++
			}
		}
		return float64(n) / float64(len(cx.cores))
	})
	var lastActive, lastAt sim.Time
	reg.Gauge("cpu.busy_frac", func() float64 {
		now := cx.eng.Now()
		da, dt := cx.stats.ActiveTime-lastActive, now-lastAt
		lastActive, lastAt = cx.stats.ActiveTime, now
		if dt <= 0 {
			return 0
		}
		u := float64(da) / (float64(dt) * float64(len(cx.cores)))
		if u > 1 {
			u = 1
		}
		return u
	})
}

// Config returns the complex configuration.
func (cx *Complex) Config() Config { return cx.cfg }

// Stats returns the accumulated statistics.
func (cx *Complex) Stats() Stats { return cx.stats }

// NumCores reports the core count.
func (cx *Complex) NumCores() int { return len(cx.cores) }

// Exec runs t on the core selected by hint (wrapped modulo the core
// count, so callers can use an application index as affinity).
func (cx *Complex) Exec(hint int, t *Task) {
	if t == nil || t.Duration < 0 {
		panic("cpu: invalid task")
	}
	c := cx.cores[((hint%len(cx.cores))+len(cx.cores))%len(cx.cores)]
	c.queue = append(c.queue, t)
	cx.kick(c)
}

// kick schedules a dispatch pass for c; same-instant submissions batch so
// contention inflation sees the full backlog.
func (cx *Complex) kick(c *core) {
	if c.busy || c.kickQueued {
		return
	}
	c.kickQueued = true
	cx.eng.After(0, func() {
		c.kickQueued = false
		cx.startNext(c)
	})
}

// Interrupt delivers an IP completion interrupt to the core selected by
// hint: it counts toward the interrupt statistics and then executes the
// service routine like any other task (waking the core if needed).
func (cx *Complex) Interrupt(hint int, t *Task) {
	cx.stats.Interrupts++
	cx.Exec(hint, t)
}

// startNext begins the next queued task on c, paying the wake latency and
// accruing the idle/sleep energy for the gap just ended.
func (cx *Complex) startNext(c *core) {
	if c.busy || len(c.queue) == 0 {
		return
	}
	t := c.queue[0]
	c.queue = c.queue[1:]
	c.busy = true

	now := cx.eng.Now()
	wake := cx.accrueGapAndWake(c, now)

	// Contention inflation: queued work behind us slows this task down.
	eff := t.Duration
	if n := len(c.queue); n > 0 && cx.cfg.LoadFactor > 0 {
		eff = sim.Time(float64(eff) * (1 + cx.cfg.LoadFactor*float64(n)))
	}
	var instr uint64
	if t.Duration > 0 {
		instr = uint64(t.Duration) * instrPerNS
		if eff > t.Duration {
			instr = uint64(float64(instr) * float64(eff) / float64(t.Duration))
		}
	}

	total := wake + eff
	if cx.phases != nil {
		for i := range cx.cores {
			if cx.cores[i] == c {
				cx.phases.Phase(fmt.Sprintf("CPU%d", i), t.Label, now, now+total)
				break
			}
		}
	}
	cx.stats.ActiveTime += total
	cx.stats.Tasks++
	cx.stats.Instructions += instr
	cx.acct.AddPower(energy.CPUActive, cx.cfg.ActiveW, eff)
	cx.acct.AddPower(energy.CPUWake, cx.cfg.ActiveW, wake)

	cx.eng.After(total, func() {
		c.busy = false
		c.idleSince = cx.eng.Now()
		if t.OnDone != nil {
			t.OnDone()
		}
		cx.kick(c)
	})
}

// accrueGapAndWake charges the idle/sleep energy of the gap ending now and
// returns the wake latency the next task must pay.
func (cx *Complex) accrueGapAndWake(c *core, now sim.Time) sim.Time {
	gap := now - c.idleSince
	if gap <= 0 {
		return 0
	}
	cx.stats.Wakes++
	if gap <= cx.cfg.SleepAfter {
		cx.acct.AddPower(energy.CPUIdle, cx.cfg.IdleW, gap)
		return cx.cfg.IdleWake
	}
	cx.stats.DeepWakes++
	cx.acct.AddPower(energy.CPUIdle, cx.cfg.IdleW, cx.cfg.SleepAfter)
	cx.acct.AddPower(energy.CPUSleep, cx.cfg.SleepW, gap-cx.cfg.SleepAfter)
	return cx.cfg.SleepWake
}

// FinalizeAccounting closes every core's open idle gap at the current
// time. Call once at the end of a simulation.
func (cx *Complex) FinalizeAccounting() {
	now := cx.eng.Now()
	for _, c := range cx.cores {
		if c.busy {
			continue
		}
		gap := now - c.idleSince
		if gap <= 0 {
			continue
		}
		if gap <= cx.cfg.SleepAfter {
			cx.acct.AddPower(energy.CPUIdle, cx.cfg.IdleW, gap)
		} else {
			cx.acct.AddPower(energy.CPUIdle, cx.cfg.IdleW, cx.cfg.SleepAfter)
			cx.acct.AddPower(energy.CPUSleep, cx.cfg.SleepW, gap-cx.cfg.SleepAfter)
		}
		c.idleSince = now
	}
}
