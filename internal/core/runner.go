package core

import (
	"fmt"
	"slices"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/cpu"
	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/telemetry"
)

// Runner executes a set of applications on a platform under one system
// design and collects the paper's metrics.
type Runner struct {
	p    *platform.Platform
	opts Options
	// recovery is the platform's Recovery switch (see recovery.go).
	recovery bool
	apps     []app.Spec
	// laneUse counts the flows bound to each lane, indexed by kind, so
	// distinct flows get distinct lanes while the hardware has capacity.
	laneUse [ipcore.NumKinds][]int

	flows     []*flowState
	rollbacks int
	ran       bool

	// Observability: counts and dFlowTimeMS are empty (no-op) when the
	// platform has no metrics registry; spans is nil (no-op) when span
	// tracing is off, and phases is spans when it records the phase
	// category, else nil.
	spans       *telemetry.Recorder
	phases      *telemetry.Recorder
	sampler     *metrics.Sampler
	counts      []count
	dFlowTimeMS *metrics.Distribution

	// Fault-recovery bookkeeping (see recovery.go).
	frameTimeouts int
	frameRetries  int
	framesFailed  int
	degradedFlows int
}

// count is one cumulative count of the run, read from the QoS trackers
// or the runner's own ints, so that each count is kept once. With
// metrics on, every count is sampled as a gauge and reported in
// Report.Counters.
type count struct {
	name string
	read metrics.GaugeFunc
}

// countList lists the run's five frame counts and, when the run has an
// injector or recovery enabled, its four fault counts; fault-free
// reports keep their exact shape.
func (r *Runner) countList() []count {
	overFlows := func(f func(*app.QoS) int) metrics.GaugeFunc {
		return func() float64 {
			n := 0
			for _, fs := range r.flows {
				n += f(fs.qos)
			}
			return float64(n)
		}
	}
	of := func(n *int) metrics.GaugeFunc { return func() float64 { return float64(*n) } }
	cs := []count{
		{"frames.released_total", overFlows(func(q *app.QoS) int { return q.Frames() - q.DroppedFrames() })},
		{"frames.completed_total", overFlows((*app.QoS).CompletedFrames)},
		{"frames.dropped_total", overFlows((*app.QoS).DroppedFrames)},
		{"qos.violations_total", overFlows(func(q *app.QoS) int { return q.Violations() - q.DroppedFrames() })},
		{"game.rollbacks_total", of(&r.rollbacks)},
	}
	if r.p.Injector() != nil || r.recovery {
		cs = append(cs,
			count{"fault.frame_timeouts_total", of(&r.frameTimeouts)},
			count{"fault.frame_retries_total", of(&r.frameRetries)},
			count{"fault.frames_failed_total", of(&r.framesFailed)},
			count{"fault.degraded_flows_total", of(&r.degradedFlows)})
	}
	return cs
}

// trackedJob remembers which IP a submitted job went to, so the recovery
// layer can abort it there.
type trackedJob struct {
	kind ipcore.Kind
	job  *ipcore.Job
}

// frameRecord is one released frame that has neither completed nor
// failed.
type frameRecord struct {
	frame int
	// first is the frame's latest stage-0 job, whose start times the
	// pipeline traversal.
	first *ipcore.Job
	// jobs are the frame's in-flight stage jobs, tracked only when
	// recovery is on so that a timeout can abort them.
	jobs []trackedJob
	// attempts counts the frame's resubmissions.
	attempts int
}

// flowState is the runtime of one application flow.
type flowState struct {
	id     int
	appIdx int
	spec   *app.Flow
	aspec  *app.Spec
	qos    *app.QoS
	// lanes is the chain: the lane bound at each stage's IP.
	lanes  []int
	period sim.Time
	phase  sim.Time // release-time offset of frame 0
	track  string   // timeline/span track name, "flow<id>:<app>/<flow>"

	// DRAM buffer rings.
	ring     int
	inBufs   []uint64
	stageOut [][]uint64 // per stage: produced output buffers

	nextRelease int
	// open holds the released frames that have neither completed nor
	// failed, in release order, which is frame order; at most
	// maxBacklog of them.
	open     []frameRecord
	flicking bool

	// Recovery state.
	faults   int  // frame timeouts observed on this flow
	degraded bool // fell back to the Baseline DRAM path
}

// releaseTime is the nominal release instant of frame i.
func (fs *flowState) releaseTime(i int) sim.Time {
	return fs.phase + sim.Time(i)*fs.period
}

// record returns the open record of a frame, or nil once the frame has
// completed or failed.
func (fs *flowState) record(frame int) *frameRecord {
	for i := range fs.open {
		if fs.open[i].frame == frame {
			return &fs.open[i]
		}
	}
	return nil
}

// closeFrame removes a frame's open record and returns it; ok is false
// when the frame already completed or failed.
func (fs *flowState) closeFrame(frame int) (rec frameRecord, ok bool) {
	for i := range fs.open {
		if fs.open[i].frame == frame {
			rec = fs.open[i]
			fs.open = slices.Delete(fs.open, i, i+1)
			return rec, true
		}
	}
	return rec, false
}

// NewRunner validates the inputs and prepares a run. The platform must be
// freshly built (its engine at time zero) and its mode must match opts.
func NewRunner(p *platform.Platform, apps []app.Spec, opts Options) (*Runner, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if p.Mode() != opts.Mode {
		return nil, fmt.Errorf("core: platform mode %v != options mode %v", p.Mode(), opts.Mode)
	}
	if p.Eng.Now() != 0 {
		return nil, fmt.Errorf("core: platform already used (now=%v)", p.Eng.Now())
	}
	if len(apps) == 0 {
		return nil, fmt.Errorf("core: no applications")
	}
	r := &Runner{p: p, opts: opts, recovery: p.Config().Recovery, apps: apps,
		spans: p.Spans(), phases: p.Spans().Phases()}
	// The distribution handle is nil-safe: on a platform without a
	// registry it is nil and every observation is a no-op.
	reg := p.Metrics()
	r.dFlowTimeMS = reg.Distribution("flow.time_ms")
	if reg.Enabled() {
		r.counts = r.countList()
		for _, c := range r.counts {
			reg.Gauge(c.name, c.read)
		}
	}
	for ai := range apps {
		a := &apps[ai]
		if err := a.Validate(); err != nil {
			return nil, err
		}
		for fi := range a.Flows {
			f := &a.Flows[fi]
			fs := &flowState{
				id:     len(r.flows),
				appIdx: ai,
				spec:   f,
				aspec:  a,
				qos:    app.NewQoS(f.Period()),
				period: f.Period(),
				phase:  sim.Time(ai)*sim.Millisecond + sim.Time(fi)*250*sim.Microsecond,
				open:   make([]frameRecord, 0, maxBacklog),
			}
			fs.track = fmt.Sprintf("flow%d:%s/%s", fs.id, a.ID, f.Name)
			fs.ring = maxBacklog + opts.BurstSize + 2
			r.allocBuffers(fs)
			fs.lanes = r.openLanes(f)
			r.flows = append(r.flows, fs)
		}
	}
	if r.recovery {
		// Hardware quarantine notifications flow back into the driver:
		// reallocate lanes and retry the stranded frames.
		for _, k := range p.Kinds() {
			k := k
			p.IP(k).SetLaneFaultHandler(func(lane int, stranded []*ipcore.Job) {
				r.onLaneFault(k, lane, stranded)
			})
		}
	}
	return r, nil
}

// allocBuffers reserves the DRAM buffer rings a flow needs.
func (r *Runner) allocBuffers(fs *flowState) {
	if fs.spec.InBytes > 0 {
		for i := 0; i < fs.ring; i++ {
			fs.inBufs = append(fs.inBufs, r.p.AllocFrame(fs.spec.InBytes))
		}
	}
	fs.stageOut = make([][]uint64, len(fs.spec.Stages))
	for s, st := range fs.spec.Stages {
		if st.OutBytes <= 0 {
			continue
		}
		for i := 0; i < fs.ring; i++ {
			fs.stageOut[s] = append(fs.stageOut[s], r.p.AllocFrame(st.OutBytes))
		}
	}
}

// Run executes the configured duration and returns the report. It may be
// called once per Runner.
func (r *Runner) Run() (*Report, error) {
	if r.ran {
		return nil, fmt.Errorf("core: runner already ran")
	}
	r.ran = true

	// Chain instantiation (the open() calls of Figures 9-11) happens
	// once per flow at app start in chained modes.
	if r.p.Mode().Chained() {
		for _, fs := range r.flows {
			r.cpuTask(fs.appIdx, "open", chainOpen, nil)
		}
	}
	// Touch processes for game apps.
	r.startTouch()
	// Kick every flow's release loop.
	for _, fs := range r.flows {
		r.scheduleNextRelease(fs)
	}
	// The periodic metrics sampler rides the same event queue as the
	// component models, so sampling is deterministic.
	r.sampler = metrics.StartSampler(r.p.Eng, r.p.Metrics(), r.opts.MetricsInterval, r.opts.Duration)
	if r.sampler != nil {
		r.sampler.OnSample = r.opts.OnMetricsSample
	}

	r.p.Eng.Run(r.opts.Duration)
	r.p.FinalizeAccounting()

	// Expire frames that were submitted but never finished and are past
	// their deadline: they are violations. The open list is in frame
	// order, so frames expire in frame order.
	for _, fs := range r.flows {
		for _, rec := range fs.open {
			if dl := fs.qos.Deadline(fs.releaseTime(rec.frame)); dl <= r.opts.Duration {
				fs.qos.Expired()
				r.spans.FrameExpired(fs.track, rec.frame, dl)
			}
		}
	}
	return r.buildReport(), nil
}

// Sampler returns the metrics sampler of the run (nil when metrics were
// disabled or Run has not been called).
func (r *Runner) Sampler() *metrics.Sampler { return r.sampler }

// cpuTask schedules CPU work and invokes then when it retires.
func (r *Runner) cpuTask(hint int, label string, d sim.Time, then func()) {
	r.p.CPU.Exec(hint, &cpu.Task{Label: label, Duration: d, OnDone: then})
}

// interrupt delivers an IP completion interrupt and runs then after the
// ISR. Interrupts are routed to core 0 regardless of the requesting app,
// as stock Linux does — with many apps the ISR load concentrates and
// queues there, one of the §3.1 inefficiencies.
func (r *Runner) interrupt(hint int, then func()) {
	if r.p.Injector().LostInterrupt() {
		// The completion interrupt vanished (dropped MSI / masked line):
		// no ISR runs and the driver-side continuation never fires. Only
		// the recovery layer's frame timeout can rescue the frame.
		return
	}
	r.p.CPU.Interrupt(0, &cpu.Task{Label: "isr", Duration: isr, OnDone: then})
}

// scheduleNextRelease arms the next release event of a flow.
func (r *Runner) scheduleNextRelease(fs *flowState) {
	at := fs.releaseTime(fs.nextRelease)
	if at >= r.opts.Duration {
		return
	}
	r.p.Eng.At(at, func() { r.releaseGroup(fs) })
}

// releaseGroup releases the next frame (per-frame modes) or the next burst
// (burst modes) of a flow, then re-arms the release loop.
func (r *Runner) releaseGroup(fs *flowState) {
	mode := r.p.Mode()
	b := 1
	if mode.Bursted() && !fs.degraded {
		b = r.opts.effectiveBurst(fs.aspec, fs.flicking)
		if b > maxBacklog {
			// The driver never submits more frames than its request
			// queue holds (the Nexus 7 depth-7 limit of §2.2).
			b = maxBacklog
		}
	}
	first := fs.nextRelease
	frames := make([]int, 0, b)
	for i := first; i < first+b; i++ {
		if fs.releaseTime(i) >= r.opts.Duration && i != first {
			break
		}
		if len(fs.open) >= maxBacklog {
			// Driver queue full (the Nexus 7 depth-7 limit): drop.
			fs.qos.Dropped()
			r.spans.FrameDrop(fs.track, i, r.p.Eng.Now())
			continue
		}
		fs.qos.Released()
		fs.open = append(fs.open, frameRecord{frame: i})
		r.spans.FrameSubmit(fs.track, i, fs.releaseTime(i))
		frames = append(frames, i)
		if r.recovery {
			r.armFrameTimeout(fs, i, fs.releaseTime(i)+2*fs.period)
		}
	}
	fs.nextRelease = first + b
	r.scheduleNextRelease(fs)
	if len(frames) == 0 {
		return
	}
	switch {
	case fs.degraded:
		// Repeatedly-faulting chain: this flow fell back to the
		// per-frame DRAM-staged path (graceful degradation).
		r.submitBaseline(fs, frames[0])
	case !mode.Chained() && !mode.Bursted():
		r.submitBaseline(fs, frames[0])
	case !mode.Chained() && mode.Bursted():
		r.submitBurstUnchained(fs, frames)
	case mode.Chained() && !mode.Bursted():
		r.submitChained(fs, frames, false)
	default:
		r.submitChained(fs, frames, true)
	}
}

// completeFrame records a frame's display/transmission moment.
func (r *Runner) completeFrame(fs *flowState, frame int) {
	rec, ok := fs.closeFrame(frame)
	if !ok {
		return
	}
	rel := fs.releaseTime(frame)
	start := rel
	if j := rec.first; j != nil && j.Started() {
		start = j.StartedAt()
	}
	if r.phases != nil {
		r.phases.Phase(fs.track, fmt.Sprintf("f%d", frame), start, r.p.Eng.Now())
	}
	now := r.p.Eng.Now()
	onTime := fs.qos.Completed(rel, start, now)
	r.spans.Frame(fs.track, frame, rel, start, now, fs.qos.Deadline(rel), onTime)
	if ft := now - start; ft > 0 {
		r.dFlowTimeMS.Observe(ft.Milliseconds())
	} else {
		r.dFlowTimeMS.Observe(0)
	}
}

// computeScale returns the deterministic per-frame compute multiplier:
// the GOP's independent frame costs iFrameFactor, and every frame carries
// seeded complexity jitter. Keyed hashing makes it independent of
// evaluation order.
func (r *Runner) computeScale(fs *flowState, frame int) float64 {
	scale := 1.0
	gop := fs.aspec.GOP
	if gop > 0 && frame%gop == 0 {
		scale = iFrameFactor
	}
	if n := r.opts.ComputeNoise; n > 0 {
		h := sim.NewRNG(r.opts.Seed ^ uint64(fs.id)*0x9e3779b1 ^ uint64(frame)*0x85ebca77)
		scale *= 1 + n*(2*h.Float64()-1)
	}
	return scale
}

// variesByFrame reports whether a kind's compute cost depends on frame
// content (codecs and renderers do; DMA-style scanout and devices don't).
func variesByFrame(k ipcore.Kind) bool {
	switch k {
	case ipcore.VD, ipcore.VE, ipcore.GPU, ipcore.IMG, ipcore.AD, ipcore.AE:
		return true
	}
	return false
}

// makeJob constructs the stage-s job of a frame. chained selects the
// IP-to-IP data path.
func (r *Runner) makeJob(fs *flowState, frame, s int, chained bool) *ipcore.Job {
	st := fs.spec.Stages[s]
	j := &ipcore.Job{
		FlowID:   fs.id,
		Frame:    frame,
		Stage:    s,
		InBytes:  fs.spec.StageIn(s),
		OutBytes: st.OutBytes,
		Deadline: fs.qos.Deadline(fs.releaseTime(frame)),
	}
	if r.phases != nil {
		j.Label = fs.jobName(s, frame)
	}
	if variesByFrame(st.Kind) {
		j.ComputeScale = r.computeScale(fs, frame)
	}
	// Input side.
	switch {
	case s == 0 && st.Kind.IsSource():
		// Sensor: generates data, paced by real time.
		j.InBytes = 0
		j.NotBefore = fs.releaseTime(frame)
	case s == 0:
		j.InFromDRAM = true
		j.InAddr = fs.inBufs[frame%fs.ring]
	case chained:
		// Fed through the flow buffer by the upstream stage.
	default:
		// Zero-copy BufferQueue: the consumer maps the producer's buffer.
		j.InFromDRAM = true
		j.InAddr = fs.stageOut[s-1][frame%fs.ring]
	}
	// Output side.
	if st.OutBytes > 0 {
		if chained {
			next := fs.spec.Stages[s+1].Kind
			j.OutLane = r.p.IP(next).Lane(fs.lanes[s+1])
		} else {
			j.OutToDRAM = true
			j.OutAddr = fs.stageOut[s][frame%fs.ring]
		}
	}
	return j
}

// jobName names the stage-s job of a frame by app, flow, stage and
// frame, e.g. "A5/cpu-vd-dc/s1/f3".
func (fs *flowState) jobName(s, frame int) string {
	return fmt.Sprintf("%s/%s/s%d/f%d", fs.aspec.ID, fs.spec.Name, s, frame)
}

// submitJob queues a stage job on its IP's lane for this flow. With
// recovery on, an open frame tracks the job so that a timeout can abort
// it.
func (r *Runner) submitJob(fs *flowState, s int, j *ipcore.Job) {
	kind := fs.spec.Stages[s].Kind
	if r.recovery {
		if rec := fs.record(j.Frame); rec != nil {
			rec.jobs = append(rec.jobs, trackedJob{kind: kind, job: j})
		}
	}
	if err := r.p.IP(kind).Submit(fs.lanes[s], j); err != nil {
		panic(fmt.Sprintf("core: submit %s: %v", fs.jobName(s, j.Frame), err))
	}
}

// trackFirst remembers an open frame's stage-0 job for traversal timing.
func (fs *flowState) trackFirst(frame int, j *ipcore.Job) {
	if rec := fs.record(frame); rec != nil {
		rec.first = j
	}
}

// ---- Baseline: per-frame CPU orchestration, memory staging ----

// submitBaseline walks one frame through its stages: CPU setup, IP run,
// interrupt, staging copy, next stage (Figure 1's control flow).
func (r *Runner) submitBaseline(fs *flowState, frame int) {
	r.baselineStage(fs, frame, 0)
}

func (r *Runner) baselineStage(fs *flowState, frame, s int) {
	d := setupPerIP
	if s == 0 {
		d += fs.spec.CPUPrep
	}
	r.cpuTask(fs.appIdx, "setup", d, func() {
		j := r.makeJob(fs, frame, s, false)
		if s == 0 {
			fs.trackFirst(frame, j)
		}
		last := s == len(fs.spec.Stages)-1
		j.OnDone = func() {
			if last {
				r.completeFrame(fs, frame)
			}
			r.interrupt(fs.appIdx, func() {
				if last {
					return
				}
				// Software hand-off to the next stage's driver: Binder
				// callback + thread wake + BufferQueue exchange.
				r.p.Eng.After(handoff, func() {
					r.baselineStage(fs, frame, s+1)
				})
			})
		}
		r.submitJob(fs, s, j)
	})
}

// ---- Frame Burst without IP-to-IP: gated descriptors through memory ----

// submitBurstUnchained pre-programs every stage descriptor of the burst;
// inter-stage data still moves through DRAM (with the staging copy), but
// the CPU is only involved once per burst, and is interrupted once when
// the burst drains (§4.3).
func (r *Runner) submitBurstUnchained(fs *flowState, frames []int) {
	b := len(frames)
	d := burstSetupBase +
		sim.Time(b)*(burstSetupPerFrame+burstResiduePerFrame+fs.spec.CPUPrep)
	r.cpuTask(fs.appIdx, "burst-setup", d, func() {
		lastFrame := frames[len(frames)-1]
		for _, frame := range frames {
			frame := frame
			jobs := make([]*ipcore.Job, len(fs.spec.Stages))
			for s := range fs.spec.Stages {
				j := r.makeJob(fs, frame, s, false)
				j.Gated = s > 0
				if s == 0 && j.NotBefore == 0 {
					// The burst header carries presentationTime[] per
					// frame (Figure 9): descriptors are paced — with one
					// period of lead — so a burst neither floods the
					// shared memory system nor parks more than a couple
					// of frames of work ahead of real time.
					nb := fs.releaseTime(frame) - fs.period
					if first := fs.releaseTime(frames[0]); nb < first {
						nb = first
					}
					j.NotBefore = nb
				}
				jobs[s] = j
			}
			fs.trackFirst(frame, jobs[0])
			for s := range jobs {
				s := s
				last := s == len(jobs)-1
				jobs[s].OnDone = func() {
					if last {
						r.completeFrame(fs, frame)
						if frame == lastFrame {
							r.interrupt(fs.appIdx, nil)
						}
						return
					}
					// Release the next stage's pre-programmed
					// descriptor — no CPU in the loop.
					next := fs.spec.Stages[s+1].Kind
					r.p.IP(next).Ungate(jobs[s+1])
				}
			}
			for s := range jobs {
				r.submitJob(fs, s, jobs[s])
			}
		}
	})
}

// ---- Chained designs: IP-to-IP, IP-to-IP + bursts, VIP ----

// submitChained submits one frame (burst=false) or a burst of frames
// (burst=true) as super-requests through the instantiated chain: a header
// packet travels ahead, data flows lane to lane, and the CPU hears back
// once per frame (IP-to-IP) or once per burst (burst modes).
func (r *Runner) submitChained(fs *flowState, frames []int, burst bool) {
	hops := len(fs.spec.Stages)
	b := len(frames)
	var d sim.Time
	if burst {
		d = chainSetupBase + sim.Time(hops)*chainSetupPerHop +
			sim.Time(b)*(burstSetupPerFrame+burstResiduePerFrame+fs.spec.CPUPrep)
	} else {
		d = chainSetupBase + sim.Time(hops)*chainSetupPerHop + fs.spec.CPUPrep
	}
	r.cpuTask(fs.appIdx, "chain-setup", d, func() {
		// The header packet crosses the SA ahead of the frames (§5.4:
		// negligible but not free).
		r.p.SA.Transfer(headerBytes(hops), nil)
		lastFrame := frames[len(frames)-1]
		for _, frame := range frames {
			frame := frame
			jobs := make([]*ipcore.Job, len(fs.spec.Stages))
			for s := range fs.spec.Stages {
				jobs[s] = r.makeJob(fs, frame, s, true)
			}
			fs.trackFirst(frame, jobs[0])
			// Wire producer -> consumer identity for shared-lane safety
			// (and to model chain HOL blocking on single-lane hardware).
			for s := 0; s < len(jobs)-1; s++ {
				jobs[s].OutConsumer = jobs[s+1]
			}
			last := len(jobs) - 1
			jobs[last].OnDone = func() {
				r.completeFrame(fs, frame)
				if !burst || frame == lastFrame {
					r.interrupt(fs.appIdx, nil)
				}
			}
			// Submit consumers before producers so lanes exist to fill.
			for s := len(jobs) - 1; s >= 0; s-- {
				r.submitJob(fs, s, jobs[s])
			}
		}
	})
}

// ---- Touch processes (game apps, §4.3) ----

// startTouch launches the tap/flick processes of game applications.
func (r *Runner) startTouch() {
	for ai := range r.apps {
		a := &r.apps[ai]
		if a.Class != app.ClassGame {
			continue
		}
		switch a.Touch {
		case app.TouchFlick:
			m := app.NewFlickModel(r.opts.Seed + uint64(ai)*7919)
			r.flickLoop(ai, m)
		default:
			m := app.NewTapModel(r.opts.Seed + uint64(ai)*104729)
			r.tapLoop(ai, m)
		}
	}
}

// gameFlows returns the app's flows that participate in hybrid bursting.
func (r *Runner) gameFlows(appIdx int) []*flowState {
	var out []*flowState
	for _, fs := range r.flows {
		if fs.appIdx == appIdx && fs.spec.Display {
			out = append(out, fs)
		}
	}
	return out
}

// tapLoop delivers discrete taps; a tap that lands while speculative burst
// frames are in flight forces a rollback re-computation (Figure 11).
func (r *Runner) tapLoop(appIdx int, m *app.TapModel) {
	var next func()
	next = func() {
		gap := m.NextGap()
		if r.p.Eng.Now()+gap >= r.opts.Duration {
			return
		}
		r.p.Eng.After(gap, func() {
			r.cpuTask(appIdx, "touch", touchInput, nil)
			if r.p.Mode().Bursted() {
				now := r.p.Eng.Now()
				for _, fs := range r.gameFlows(appIdx) {
					// Frames speculated beyond the current presentation
					// point are invalidated by the tap and recomputed
					// (Figure 11's rollback path).
					last := fs.nextRelease - 1
					cur := int((now - fs.phase) / fs.period)
					if last > cur {
						r.rollbacks++
						redo := sim.Time(last-cur) * fs.spec.CPUPrep
						r.cpuTask(appIdx, "rollback", redo, nil)
					}
				}
			}
			next()
		})
	}
	next()
}

// flickLoop alternates flick (bursting disabled) and idle (bursting
// enabled) phases for swipe-driven games.
func (r *Runner) flickLoop(appIdx int, m *app.FlickModel) {
	var next func()
	next = func() {
		flick, gap := m.NextPhase()
		now := r.p.Eng.Now()
		if now >= r.opts.Duration {
			return
		}
		r.cpuTask(appIdx, "flick", touchInput, nil)
		for _, fs := range r.gameFlows(appIdx) {
			fs.flicking = true
		}
		r.p.Eng.After(flick, func() {
			for _, fs := range r.gameFlows(appIdx) {
				fs.flicking = false
			}
			if r.p.Eng.Now()+gap < r.opts.Duration {
				r.p.Eng.After(gap, next)
			}
		})
	}
	next()
}
