package ipcore

import (
	"fmt"

	"github.com/vipsim/vip/internal/dram"
	"github.com/vipsim/vip/internal/energy"
	"github.com/vipsim/vip/internal/fault"
	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/noc"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/telemetry"
)

// Policy selects the lane scheduler implemented in the IP's hardware.
type Policy int

const (
	// FCFS serves lane-0's head job to completion before the next —
	// the conventional single-context IP.
	FCFS Policy = iota
	// EDF context switches between lanes at sub-frame boundaries,
	// picking the runnable lane whose head job has the earliest
	// deadline — the VIP hardware scheduler (paper §4.4/§5.3).
	EDF
	// RR rotates between lanes every 64 sub-frames (rrQuantum) — the
	// fairness-first alternative the paper alludes to when it notes
	// that "EDF may not be suitable for ensuring fairness".
	RR
	// Priority always serves the lowest-numbered lane with work — a
	// fixed-priority scheduler, included as a baseline that is simple
	// in hardware but starves late lanes.
	Priority
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case EDF:
		return "EDF"
	case RR:
		return "RR"
	case Priority:
		return "Priority"
	}
	return "FCFS"
}

// Config describes one IP core.
type Config struct {
	Name string
	Kind Kind

	// ThroughputBPS is the unstalled processing rate, defined over
	// max(input, output) bytes of a frame.
	ThroughputBPS float64
	// PerFrame is a fixed engine-setup overhead charged on each frame's
	// first chunk.
	PerFrame sim.Time

	// Lanes is the number of virtual channels (1 = conventional IP,
	// up to 4 under VIP per §5.5).
	Lanes int
	// LaneBufBytes is the flow-buffer capacity per lane (2 KB = 32
	// cache lines in the paper's chosen design point).
	LaneBufBytes int
	// SubframeBytes is the scheduling/transfer granularity (1 KB in
	// the paper).
	SubframeBytes int

	Policy Policy
	// CtxSwitch is the penalty for switching the active lane.
	CtxSwitch sim.Time
	// SwitchPatience is how long a multi-lane scheduler tolerates the
	// current lane being blocked before context switching away.
	// Transient flow-buffer blocks (sub-microsecond credit round trips)
	// resolve on their own; paying the context-switch penalty for each
	// would thrash.
	SwitchPatience sim.Time

	// MaxWrites bounds in-flight DRAM writes (write double-buffering).
	MaxWrites int
	// Prefetch bounds in-flight DRAM input reads beyond the chunk being
	// computed (read double-buffering).
	Prefetch int

	// Power (watts) by activity.
	ActiveW, StallW, IdleW float64

	// Metrics, when non-nil, receives the core's gauges (busy fraction,
	// lane occupancy, flow-buffer fill, context switches), prefixed
	// "ip.<Name>.".
	Metrics *metrics.Registry

	// Spans, when non-nil, receives one queue span and one service span
	// per retired job (the per-hop segments of a frame's causal trace),
	// annotated with DRAM/NoC wait time and bytes moved. When it records
	// the phase category it also receives the core's phase timeline and
	// its job-completion and fault marks.
	Spans *telemetry.Recorder

	// Injector, when non-nil and enabled, delivers hardware faults to
	// this core: lane hangs at compute-chunk boundaries, compute
	// slowdowns, and flow-control credit losses on its lanes.
	Injector *fault.Injector

	// Recovery arms the hardware fault recovery of every lane: a lane
	// hung for watchdogPeriod gets a reset pulse lasting resetTime. A
	// reset clears a transient hang; a permanent hang survives, and
	// after quarantineResets failed resets the lane is quarantined —
	// taken out of service, its stranded jobs handed to the driver's
	// lane-fault handler — and repaired after repairTime.
	Recovery bool
}

// The hardware recovery policy that Config.Recovery arms: watchdogs
// fire well past any healthy job, two failed resets quarantine a lane,
// and a quarantined lane comes back after a lengthy repair.
const (
	watchdogPeriod   = 5 * sim.Millisecond
	resetTime        = 50 * sim.Microsecond
	quarantineResets = 2
	repairTime       = 20 * sim.Millisecond
)

// faultEnabled reports whether any fault machinery (injection or
// watchdog recovery) is active; fault metrics register only then so that
// fault-free runs keep byte-identical outputs.
func (c Config) faultEnabled() bool {
	return c.Injector.Enabled() || c.Recovery
}

func (c Config) validate() error {
	if c.Name == "" {
		return fmt.Errorf("ipcore: config needs a name")
	}
	if c.ThroughputBPS <= 0 {
		return fmt.Errorf("ipcore: %s throughput must be positive", c.Name)
	}
	if c.Lanes <= 0 {
		return fmt.Errorf("ipcore: %s needs at least one lane", c.Name)
	}
	if c.SubframeBytes <= 0 {
		return fmt.Errorf("ipcore: %s sub-frame size must be positive", c.Name)
	}
	if c.LaneBufBytes <= 0 {
		return fmt.Errorf("ipcore: %s lane buffer must be positive", c.Name)
	}
	if c.MaxWrites <= 0 || c.Prefetch <= 0 {
		return fmt.Errorf("ipcore: %s pipelining depths must be positive", c.Name)
	}
	return nil
}

// Phase is the core's instantaneous activity, used for time and energy
// accounting.
type Phase int

const (
	PhaseIdle      Phase = iota // no pending work
	PhaseCompute                // executing a chunk
	PhaseStallMem               // waiting on DRAM or the SA
	PhaseStallFlow              // waiting on flow-buffer credit/data
)

// Stats aggregates a core's activity.
type Stats struct {
	Compute   sim.Time
	StallMem  sim.Time
	StallFlow sim.Time
	Idle      sim.Time
	Frames    uint64
	BytesIn   uint64
	BytesOut  uint64
	CtxSwitch uint64

	// Fault/recovery activity (zero without an injector or Recovery;
	// omitted from JSON then, keeping fault-free reports bit-identical).
	Hangs         uint64   `json:",omitempty"` // injected lane hangs observed
	WatchdogFires uint64   `json:",omitempty"` // watchdog expiries on hung lanes
	LaneResets    uint64   `json:",omitempty"` // reset pulses delivered
	Quarantines   uint64   `json:",omitempty"` // lanes taken out of service
	Repairs       uint64   `json:",omitempty"` // quarantined lanes returned to service
	Aborts        uint64   `json:",omitempty"` // jobs cancelled by the driver
	RecoveryCount uint64   `json:",omitempty"` // hang episodes resolved (cleared or quarantined)
	RecoveryTime  sim.Time `json:",omitempty"`
	RecoveryMax   sim.Time `json:",omitempty"`
}

// ActiveTime is the time the IP spent holding a frame: computing plus
// stalled (the quantity behind Figure 3a).
func (s Stats) ActiveTime() sim.Time { return s.Compute + s.StallMem + s.StallFlow }

// Utilization is the fraction of active time spent computing (Figure 3b).
func (s Stats) Utilization() float64 {
	a := s.ActiveTime()
	if a == 0 {
		return 0
	}
	return float64(s.Compute) / float64(a)
}

// Core is one IP core instance.
type Core struct {
	eng  *sim.Engine
	cfg  Config
	sa   *noc.Fabric
	mem  *dram.Controller
	acct *energy.Account
	// bufReadJ and bufWriteJ are the CACTI energies of one 64 B line
	// access to a LaneBufBytes flow buffer.
	bufReadJ, bufWriteJ float64
	// phases is cfg.Spans when it records the phase category, else nil.
	phases *telemetry.Recorder

	lanes []*Lane

	// active is the job whose chunk is committed on the datapath
	// (compute timer or SA output transfer in flight). At most one
	// datapath timer is ever pending and it belongs to active: dispatch
	// does not start while active != nil, and only that timer's
	// completion clears it, on abort too. The completions below
	// therefore take their job from active.
	active     *Job
	lastLane   *Lane
	rrServed   int // sub-frames served on lastLane (RR quantum)
	kickQueued bool
	// wakeTag lets a patience wake merge into an identical one queued
	// straight ahead of it (see pick). Bound with wakeFn; it sits in
	// kickQueued's padding, so the Core grows no size class.
	wakeTag    sim.Tag
	phase      Phase
	phaseSince sim.Time
	stats      Stats

	// The core's event completions, bound once on its first kick (see
	// bind) so that scheduling one allocates nothing.
	dispatchFn     func() // a coalesced kick: c.kicked
	wakeFn         func() // a timed re-kick: c.kick
	stepFn         func() // end of a lane context switch: c.stepActive
	computeDoneFn  func() // end of a compute chunk: c.computeDone
	transferDoneFn func() // an output sub-frame crossed the SA: c.emitDone

	// onLaneFault is the driver's quarantine notification; it receives
	// the quarantined lane index and its stranded (incomplete) jobs.
	onLaneFault func(lane int, stranded []*Job)
	// recoveryDist records hang-to-resolution latencies (ms) when both
	// metrics and the fault layer are enabled.
	recoveryDist *metrics.Distribution
}

// NewCore builds an IP core. It panics on invalid configuration.
func NewCore(eng *sim.Engine, cfg Config, sa *noc.Fabric, mem *dram.Controller, acct *energy.Account, sram energy.SRAMModel) *Core {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Core{
		eng: eng, cfg: cfg, sa: sa, mem: mem, acct: acct,
		bufReadJ:  sram.ReadEnergyJ(cfg.LaneBufBytes),
		bufWriteJ: sram.WriteEnergyJ(cfg.LaneBufBytes),
		phases:    cfg.Spans.Phases(),
		phase:     PhaseIdle,
	}
	c.lanes = make([]*Lane, cfg.Lanes)
	for i := range c.lanes {
		c.lanes[i] = &Lane{core: c, idx: i, capBytes: cfg.LaneBufBytes}
	}
	c.registerMetrics()
	return c
}

// registerMetrics wires the core's gauges into the metrics registry (a
// no-op when metrics are disabled). Phase times accrue at transitions,
// which happen at sub-frame granularity, so the sampled busy fraction
// tracks the true residency closely.
func (c *Core) registerMetrics() {
	reg := c.cfg.Metrics
	if !reg.Enabled() {
		return
	}
	prefix := "ip." + c.cfg.Name + "."
	reg.Gauge(prefix+"occupancy", func() float64 {
		n := 0
		for _, l := range c.lanes {
			n += l.QueueLen()
		}
		return float64(n)
	})
	reg.Gauge(prefix+"flowbuf_used_bytes", func() float64 {
		n := 0
		for _, l := range c.lanes {
			n += l.used
		}
		return float64(n)
	})
	reg.Gauge(prefix+"frames_total", func() float64 { return float64(c.stats.Frames) })
	reg.Gauge(prefix+"ctx_switches_total", func() float64 { return float64(c.stats.CtxSwitch) })
	if c.cfg.faultEnabled() {
		reg.Gauge(prefix+"fault.hangs_total", func() float64 { return float64(c.stats.Hangs) })
		reg.Gauge(prefix+"fault.watchdog_fires_total", func() float64 { return float64(c.stats.WatchdogFires) })
		reg.Gauge(prefix+"fault.lane_resets_total", func() float64 { return float64(c.stats.LaneResets) })
		reg.Gauge(prefix+"fault.quarantines_total", func() float64 { return float64(c.stats.Quarantines) })
		reg.Gauge(prefix+"fault.repairs_total", func() float64 { return float64(c.stats.Repairs) })
		reg.Gauge(prefix+"fault.aborts_total", func() float64 { return float64(c.stats.Aborts) })
		c.recoveryDist = reg.Distribution(prefix + "fault.recovery_latency_ms")
	}
	var lastBusy, lastAt sim.Time
	reg.Gauge(prefix+"busy_frac", func() float64 {
		now := c.eng.Now()
		busy := c.stats.Compute + c.stats.StallMem + c.stats.StallFlow
		// Include the open phase up to now so the gauge does not lag a
		// long-running chunk.
		if c.phase != PhaseIdle {
			busy += now - c.phaseSince
		}
		db, dt := busy-lastBusy, now-lastAt
		lastBusy, lastAt = busy, now
		if dt <= 0 {
			return 0
		}
		u := float64(db) / float64(dt)
		if u > 1 {
			u = 1
		}
		return u
	})
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Lane returns lane i.
func (c *Core) Lane(i int) *Lane { return c.lanes[i] }

// Lanes reports the number of lanes.
func (c *Core) Lanes() int { return len(c.lanes) }

// Stats returns the accumulated statistics (phase times are accrued up to
// the last transition; call FinalizeAccounting first for exact totals).
func (c *Core) Stats() Stats { return c.stats }

// Ungate releases a gated job and reschedules the core.
func (c *Core) Ungate(j *Job) {
	j.Gated = false
	c.kick()
}

// Submit queues a job on lane laneIdx and nudges the scheduler.
func (c *Core) Submit(laneIdx int, j *Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if laneIdx < 0 || laneIdx >= len(c.lanes) {
		return fmt.Errorf("ipcore: %s has no lane %d", c.cfg.Name, laneIdx)
	}
	sub := c.effectiveSubframe(j)
	j.setChunks(max(1, (j.basis()+sub-1)/sub))
	j.lane = c.lanes[laneIdx]
	j.blockedAt = -1
	j.submitAt = c.eng.Now()
	c.bindJob(j)
	j.lane.jobs = append(j.lane.jobs, j)
	c.kick()
	return nil
}

// bindJob binds j's memory and flow-control completions once, for every
// DRAM request, DRAM write and space wake-up the job will issue. Each
// job is submitted once. The DRAM wait telemetry needs no captured issue
// time: a request subtracts its issue time from j.dramNS and its
// completion adds the completion time back, so once every request has
// retired j.dramNS is the sum of their latencies.
func (c *Core) bindJob(j *Job) {
	if j.InFromDRAM {
		j.readDone = func() {
			j.dramNS += int64(c.eng.Now())
			j.inReady++
			c.kick()
		}
	}
	if j.OutToDRAM {
		j.writeDone = func() {
			j.dramNS += int64(c.eng.Now())
			j.writesOut--
			j.writesDone++
			c.maybeComplete(j)
			c.kick()
		}
	}
	if j.OutLane != nil {
		j.spaceFreed = func() {
			j.spaceWait = false
			c.kick()
		}
	}
}

// effectiveSubframe bounds the chunk size by the flow buffers the job
// touches: a transfer can never exceed the buffer that must hold it.
func (c *Core) effectiveSubframe(j *Job) int {
	sub := c.cfg.SubframeBytes
	if !j.InFromDRAM && j.InBytes > 0 && c.cfg.LaneBufBytes < sub {
		sub = c.cfg.LaneBufBytes
	}
	if j.OutLane != nil && j.OutLane.capBytes < sub {
		sub = j.OutLane.capBytes
	}
	return sub
}

// kick schedules a dispatch pass; multiple kicks coalesce.
func (c *Core) kick() {
	if c.kickQueued || c.active != nil {
		return
	}
	if c.dispatchFn == nil {
		c.bind()
	}
	c.kickQueued = true
	c.eng.After(0, c.dispatchFn)
}

// bind binds the core's completions. Every path that schedules one
// starts from a kick (Submit kicks), so the first kick binds them; a
// core that never receives work never pays for them.
func (c *Core) bind() {
	c.dispatchFn = c.kicked
	c.wakeFn = c.kick
	c.wakeTag = c.eng.NewTag()
	c.stepFn = c.stepActive
	c.computeDoneFn = c.computeDone
	c.transferDoneFn = c.emitDone
}

// kicked is the coalesced dispatch pass a kick scheduled.
func (c *Core) kicked() {
	c.kickQueued = false
	c.dispatch()
}

// setPhase accrues time in the current phase and switches to p.
func (c *Core) setPhase(p Phase) {
	now := c.eng.Now()
	d := now - c.phaseSince
	if d > 0 && c.phases != nil && c.phase != PhaseIdle {
		c.phases.Phase(c.cfg.Name, phaseTraceName(c.phase), c.phaseSince, now)
	}
	if d > 0 {
		switch c.phase {
		case PhaseCompute:
			c.stats.Compute += d
			c.acct.AddPower(energy.IPActive, c.cfg.ActiveW, d)
		case PhaseStallMem:
			c.stats.StallMem += d
			c.acct.AddPower(energy.IPStall, c.cfg.StallW, d)
		case PhaseStallFlow:
			// Waiting on flow-buffer credit/data: the engine clock
			// gates, unlike a mid-transaction memory stall.
			c.stats.StallFlow += d
			c.acct.AddPower(energy.IPStall, c.cfg.IdleW, d)
		case PhaseIdle:
			c.stats.Idle += d
			c.acct.AddPower(energy.IPIdle, c.cfg.IdleW, d)
		}
	}
	c.phase = p
	c.phaseSince = now
}

// phaseTraceName is the label recorded for a phase span.
func phaseTraceName(p Phase) string {
	switch p {
	case PhaseCompute:
		return "compute"
	case PhaseStallMem:
		return "memstall"
	case PhaseStallFlow:
		return "flowstall"
	}
	return "idle"
}

// FinalizeAccounting accrues the open phase up to now; call at the end of
// a simulation before reading stats or energy.
func (c *Core) FinalizeAccounting() { c.setPhase(c.phase) }

// chargeBufferAccess charges CACTI-modelled flow-buffer energy for an
// n-byte access (per 64 B line), write or read.
func (c *Core) chargeBufferAccess(n int, write bool) {
	lines := (n + 63) / 64
	per := c.bufReadJ
	if write {
		per = c.bufWriteJ
	}
	c.acct.Add(energy.FlowBuffer, per*float64(lines))
}

// runnable reports whether j can make progress right now.
func (c *Core) runnable(j *Job) bool {
	if j.done {
		return false
	}
	if j.lane != nil && j.lane.faulted() {
		return false // lane hung or quarantined: no progress until recovery
	}
	if j.Gated {
		return false
	}
	if !j.started && j.NotBefore > c.eng.Now() {
		return false
	}
	if j.emitted < j.computed {
		// Next action: emit chunk j.emitted.
		switch {
		case j.OutToDRAM:
			return j.writesOut < c.cfg.MaxWrites
		case j.OutLane != nil:
			if j.OutConsumer != nil && j.OutLane.head() != j.OutConsumer {
				return false // shared lane owned by another chain (HOL)
			}
			return j.OutLane.free() >= j.outNext
		default:
			return true
		}
	}
	if j.computed < j.chunks {
		// Next action: compute chunk j.computed.
		switch {
		case j.InBytes == 0:
			return true // pure source
		case j.InFromDRAM:
			return j.inReady > j.computed
		default:
			return j.inLatched >= j.inNext
		}
	}
	return false // only retiring DRAM writes remain
}

// drainLane moves available flow-buffer bytes into the job's input latch
// (the IP's internal pipeline registers), freeing buffer credit for the
// producer. Without this, a producer whose sub-frame granularity does not
// divide the consumer's could never fill the consumer's chunk.
func (c *Core) drainLane(j *Job) {
	if j.InFromDRAM || j.InBytes == 0 || j.computed >= j.chunks {
		return
	}
	need := j.inNext - j.inLatched
	if need <= 0 {
		return
	}
	take := need
	if take > j.lane.used {
		take = j.lane.used
	}
	if take > 0 {
		j.lane.consume(take)
		j.inLatched += take
	}
}

// issueReads tops up DRAM input prefetches for j.
func (c *Core) issueReads(j *Job) {
	if !j.InFromDRAM {
		return
	}
	limit := j.computed + c.cfg.Prefetch
	if limit > j.chunks {
		limit = j.chunks
	}
	for j.inIssued < limit {
		k := j.inIssued
		j.inIssued++
		j.dramNS -= int64(c.eng.Now())
		c.mem.Submit(dram.Request{
			Addr:   j.InAddr + uint64(j.inOffset(k)),
			Bytes:  j.inChunk(k),
			OnDone: j.readDone,
		})
	}
}

// rrQuantum is the RR policy's rotation quantum in sub-frames.
const rrQuantum = 64

// rank orders runnable lane heads under the multi-lane policies; pick
// runs the head of lowest rank. EDF ranks by deadline, Priority by lane
// index. RR ranks the current lane first until its quantum is spent,
// then last, and every other lane by its rotation distance after it.
func (c *Core) rank(j *Job) int64 {
	switch c.cfg.Policy {
	case EDF:
		return int64(j.Deadline)
	case RR:
		n := len(c.lanes)
		switch {
		case c.lastLane == nil:
			return int64(j.lane.idx)
		case j.lane != c.lastLane:
			return int64((j.lane.idx - c.lastLane.idx - 1 + n) % n)
		case c.rrServed < rrQuantum:
			return -1
		}
		return int64(n)
	}
	return int64(j.lane.idx)
}

// pick selects the next job to run per the configured policy, or nil.
// FCFS walks the descriptor queue: a due but blocked job blocks
// single-context hardware, and descriptors not yet due are skipped. The
// multi-lane policies walk the lane heads once, in lane order, and keep
// the runnable head of lowest rank, the earlier lane on a tie. If the
// current lane's head is merely transiently blocked, the datapath then
// holds instead of paying a context switch that would bounce straight
// back. That head is checked again, since a later lane's drain can free
// its output lane when a flow chains an IP into itself
// (TestNoHoldWhenWalkFreesCurrentHead). Holding passes arm wakes at one
// instant, which merge: kick is idempotent back to back.
func (c *Core) pick() *Job {
	now := c.eng.Now()
	if c.cfg.Policy == FCFS {
		for _, l := range c.lanes {
			for _, j := range l.jobs {
				if j.done {
					continue
				}
				if !j.started && j.NotBefore > now && !j.Gated {
					// Not yet due (presentationTime pacing): the
					// descriptor queue moves past it. Same-flow order is
					// safe because a flow's due times are monotone.
					continue
				}
				c.issueReads(j)
				c.drainLane(j)
				if c.runnable(j) {
					return j
				}
				// Single-context hardware: an in-progress or
				// data-dependent head blocks the IP.
				return nil
			}
		}
		return nil
	}
	var best, cur *Job
	var bestRank int64
	for _, l := range c.lanes {
		j := l.head()
		if j == nil {
			continue
		}
		c.issueReads(j)
		c.drainLane(j)
		if !c.runnable(j) {
			if j.blockedAt < 0 {
				j.blockedAt = now
			}
			if l == c.lastLane {
				cur = j
			}
			continue
		}
		j.blockedAt = -1
		if r := c.rank(j); best == nil || r < bestRank {
			best, bestRank = j, r
		}
	}
	if best != nil && cur != nil && c.cfg.SwitchPatience > 0 &&
		now-cur.blockedAt < c.cfg.SwitchPatience && !c.runnable(cur) {
		c.eng.AtMerge(cur.blockedAt+c.cfg.SwitchPatience, c.wakeTag, c.wakeFn)
		return nil
	}
	return best
}

// dispatch runs the scheduler: pick a job and execute its next chunk.
func (c *Core) dispatch() {
	if c.active != nil {
		return
	}
	j := c.pick()
	if j == nil {
		// Register space wake-ups for any head job parked on downstream
		// flow-buffer credit, so the next consume reschedules us, and
		// classify the stall: a due head on a DRAM path makes it a memory
		// stall, any other due head a flow stall.
		now := c.eng.Now()
		phase := PhaseIdle
		for _, l := range c.lanes {
			h := l.head()
			if h == nil {
				continue
			}
			if h.emitted < h.computed && h.OutLane != nil && !h.spaceWait {
				h.spaceWait = true
				h.OutLane.waitForSpace(h.spaceFreed)
			}
			notDue := !h.started && h.NotBefore > now
			if notDue && !h.timerSet {
				h.timerSet = true
				c.eng.At(h.NotBefore, c.wakeFn)
			}
			switch {
			case h.Gated || notDue:
				// Not yet due: waiting is idleness, not a stall.
			case h.InFromDRAM || h.OutToDRAM:
				phase = PhaseStallMem
			case phase == PhaseIdle:
				phase = PhaseStallFlow
			}
		}
		c.setPhase(phase)
		return
	}
	c.active = j
	if j.lane == c.lastLane {
		c.rrServed++
	} else {
		c.rrServed = 0
	}
	if !j.started {
		j.started = true
		j.startedAt = c.eng.Now()
	}
	if c.lastLane != nil && c.lastLane != j.lane && c.cfg.CtxSwitch > 0 {
		// Lane context switch: save/restore the request context.
		c.stats.CtxSwitch++
		c.lastLane = j.lane
		c.setPhase(PhaseCompute)
		c.eng.After(c.cfg.CtxSwitch, c.stepFn)
		return
	}
	c.lastLane = j.lane
	c.step(j)
}

// stepActive ends a lane context switch: the active job takes its step.
func (c *Core) stepActive() { c.step(c.active) }

// step performs j's next action (emit pending output, else compute).
func (c *Core) step(j *Job) {
	if j.aborted {
		c.active = nil
		c.dispatch()
		return
	}
	if j.emitted < j.computed {
		c.emit(j)
		return
	}
	c.compute(j)
}

// compute consumes chunk input and runs the datapath for the chunk time.
func (c *Core) compute(j *Job) {
	if h, ok := c.cfg.Injector.LaneHang(); ok {
		// The lane's request context wedged at the chunk boundary: the
		// chunk never issues. A multi-lane scheduler moves on to other
		// lanes; a single-lane IP is dead until recovery.
		c.startHang(j.lane, h)
		c.active = nil
		c.dispatch()
		return
	}
	if j.InBytes > 0 && !j.InFromDRAM {
		// The chunk's input was drained into the latch by the scheduler.
		j.inLatched -= j.inNext
	}
	c.stats.BytesIn += uint64(j.inNext)
	d := sim.BytesOver(int64(j.basisChunk(j.computed)), c.cfg.ThroughputBPS)
	if j.ComputeScale > 0 {
		d = sim.Time(float64(d) * j.ComputeScale)
	}
	if mult, ok := c.cfg.Injector.Slowdown(); ok {
		d = sim.Time(float64(d) * mult)
	}
	if !j.perFrameCharged {
		j.perFrameCharged = true
		d += c.cfg.PerFrame
	}
	c.issueReads(j) // keep the prefetcher ahead while computing
	c.setPhase(PhaseCompute)
	c.eng.After(d, c.computeDoneFn)
}

// computeDone ends the active job's compute chunk and emits its output.
func (c *Core) computeDone() {
	j := c.active
	if j.aborted {
		c.active = nil
		c.dispatch()
		return
	}
	j.advanceCompute()
	c.emit(j)
}

// emit hands chunk j.emitted to its output path.
func (c *Core) emit(j *Job) {
	if j.aborted {
		c.active = nil
		c.dispatch()
		return
	}
	k := j.emitted
	out := j.outNext
	switch {
	case j.OutToDRAM:
		if j.writesOut >= c.cfg.MaxWrites {
			// Park until a write retires; the core may serve others.
			c.active = nil
			c.dispatch()
			return
		}
		j.writesOut++
		j.advanceEmit()
		c.stats.BytesOut += uint64(out)
		j.dramNS -= int64(c.eng.Now())
		c.mem.Submit(dram.Request{
			Addr:   j.OutAddr + uint64(j.outOffset(k)),
			Bytes:  out,
			Write:  true,
			OnDone: j.writeDone,
		})
		c.chunkDone(j)
	case j.OutLane != nil:
		if j.OutLane.free() < out ||
			(j.OutConsumer != nil && j.OutLane.head() != j.OutConsumer) {
			// Parked; dispatch registers the space wake-up.
			c.active = nil
			c.dispatch()
			return
		}
		j.OutLane.reserve(out)
		c.setPhase(PhaseStallMem) // SA transfer occupies the producer
		j.nocNS -= int64(c.eng.Now())
		c.sa.Transfer(out, c.transferDoneFn)
	default: // sink: output vanishes into the device
		j.advanceEmit()
		c.stats.BytesOut += uint64(out)
		c.chunkDone(j)
	}
}

// emitDone lands the active job's output sub-frame, chunk j.emitted, in
// the downstream lane once it has crossed the SA.
func (c *Core) emitDone() {
	j := c.active
	out := j.outNext
	j.nocNS += int64(c.eng.Now())
	if j.aborted {
		// The frame was cancelled while the sub-frame was in flight:
		// drop it instead of depositing stale bytes.
		j.OutLane.discardReserved(out)
		c.active = nil
		c.dispatch()
		return
	}
	j.OutLane.depositReserved(out)
	j.OutLane.core.kick()
	j.advanceEmit()
	c.stats.BytesOut += uint64(out)
	c.chunkDone(j)
}

// chunkDone releases the datapath and reschedules.
func (c *Core) chunkDone(j *Job) {
	c.active = nil
	c.maybeComplete(j)
	c.dispatch()
}

// maybeComplete retires j once compute, emission and DRAM writes are all
// finished.
func (c *Core) maybeComplete(j *Job) {
	if j.done || j.computed < j.chunks || j.emitted < j.chunks {
		return
	}
	if j.OutToDRAM && j.writesDone < j.chunks {
		return
	}
	j.done = true
	j.finishedAt = c.eng.Now()
	if c.phases != nil {
		c.phases.PhaseMark(c.cfg.Name, j.Label, c.eng.Now())
	}
	c.cfg.Spans.Hop(c.cfg.Name, j.lane.idx, j.FlowID, j.Frame, j.Stage,
		j.submitAt, j.startedAt, j.finishedAt, j.dramNS, j.nocNS, j.InBytes, j.OutBytes)
	c.stats.Frames++
	if j.lane != nil {
		// The lane head advances: wake producers blocked on chain
		// ownership of this lane.
		j.lane.notifyWaiters()
	}
	if j.OnDone != nil {
		j.OnDone()
	}
}

// SetLaneFaultHandler installs the driver's quarantine notification: it
// fires when a lane is quarantined, with the jobs stranded on it. The
// handler typically aborts those jobs and resubmits their frames
// elsewhere.
func (c *Core) SetLaneFaultHandler(fn func(lane int, stranded []*Job)) {
	c.onLaneFault = fn
}

// Abort cancels an incomplete job: it is marked done without firing
// OnDone, its staged flow-buffer input is flushed, and any in-flight
// output sub-frames are discarded on arrival. The driver's recovery
// layer calls this before resubmitting a timed-out frame.
func (c *Core) Abort(j *Job) {
	if j == nil || j.done {
		return
	}
	c.stats.Aborts++
	// head() pops completed jobs, so check headship before marking done.
	wasHead := j.lane != nil && j.lane.head() == j
	j.aborted = true
	j.done = true
	j.finishedAt = c.eng.Now()
	if wasHead {
		// Bytes staged in the flow buffer belong to this frame
		// (producers only deposit while their consumer is head), so they
		// are stale now.
		if j.InBytes > 0 && !j.InFromDRAM {
			j.lane.flush()
		}
		j.lane.notifyWaiters()
	}
	if c.active != j {
		c.kick()
	}
	// If j is active, the pending compute/SA callback sees j.aborted and
	// releases the datapath itself.
}

// startHang wedges l. A transient hang self-clears after its duration; a
// permanent one persists until the watchdog path quarantines the lane.
func (c *Core) startHang(l *Lane, h fault.Hang) {
	c.stats.Hangs++
	l.hung = true
	l.hungPerm = h.Permanent
	l.hangStart = c.eng.Now()
	l.hangGen++
	gen := l.hangGen
	if c.phases != nil {
		c.phases.PhaseMark(c.cfg.Name, fmt.Sprintf("fault/hang/lane%d", l.idx), c.eng.Now())
	}
	if !h.Permanent {
		c.eng.After(h.Duration, func() {
			if l.hangGen == gen && l.hung {
				c.clearHang(l)
			}
		})
	}
	if c.cfg.Recovery {
		c.eng.After(watchdogPeriod, func() { c.watchdogFire(l, gen) })
	}
}

// clearHang returns a hung lane to service and records the outage.
func (c *Core) clearHang(l *Lane) {
	c.recordRecovery(c.eng.Now() - l.hangStart)
	l.hung = false
	l.hungPerm = false
	l.resets = 0
	l.hangGen++
	c.kick()
}

// watchdogFire handles a watchdog expiry on a (possibly still) hung
// lane: pulse a lane reset, then either clear the hang, quarantine the
// lane, or re-arm.
func (c *Core) watchdogFire(l *Lane, gen uint64) {
	if l.hangGen != gen || !l.hung {
		return // hang self-cleared before the watchdog expired
	}
	c.stats.WatchdogFires++
	c.eng.After(resetTime, func() {
		if l.hangGen != gen || !l.hung {
			return
		}
		c.stats.LaneResets++
		l.resets++
		if !l.hungPerm {
			c.clearHang(l)
			return
		}
		if l.resets >= quarantineResets {
			c.quarantineLane(l)
			return
		}
		c.eng.After(watchdogPeriod, func() { c.watchdogFire(l, gen) })
	})
}

// quarantineLane takes l out of service after repeated failed resets,
// hands its stranded jobs to the driver, and schedules the repair that
// returns it to service.
func (c *Core) quarantineLane(l *Lane) {
	c.recordRecovery(c.eng.Now() - l.hangStart)
	c.stats.Quarantines++
	l.hung = false
	l.hungPerm = false
	l.quarantined = true
	l.hangGen++
	if c.phases != nil {
		c.phases.PhaseMark(c.cfg.Name, fmt.Sprintf("fault/quarantine/lane%d", l.idx), c.eng.Now())
	}
	var stranded []*Job
	for _, j := range l.jobs {
		if !j.done {
			stranded = append(stranded, j)
		}
	}
	if c.onLaneFault != nil {
		c.onLaneFault(l.idx, stranded)
	}
	c.eng.After(repairTime, func() {
		c.stats.Repairs++
		l.quarantined = false
		l.resets = 0
		c.kick()
	})
}

// recordRecovery accounts one hang episode's outage duration.
func (c *Core) recordRecovery(d sim.Time) {
	c.stats.RecoveryCount++
	c.stats.RecoveryTime += d
	if d > c.stats.RecoveryMax {
		c.stats.RecoveryMax = d
	}
	c.recoveryDist.Observe(d.Milliseconds())
}
