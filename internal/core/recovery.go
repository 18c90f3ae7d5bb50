package core

import (
	"slices"

	"github.com/vipsim/vip/internal/cpu"
	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/sim"
)

// Driver-level fault recovery, armed by platform.Config.Recovery:
// per-frame timeouts, bounded retries with exponential backoff over the
// DRAM-staged baseline path, lane reallocation away from quarantined
// lanes, and graceful degradation of repeatedly-faulting flows. Every
// action here costs real CPU time, interrupts and energy through the
// normal driver cost model — recovery is never free.

// The driver's recovery policy. A frame is declared stuck one flow
// period past its deadline (two periods after release); it is then
// resubmitted up to retryLimit times, the first retry retryDelay later
// and each further one twice as late; and after degradeTimeouts frame
// timeouts a chained flow falls back to the per-frame Baseline path,
// trading energy for liveness on a faulty chain.
const (
	retryLimit      = 2
	retryDelay      = 250 * sim.Microsecond
	degradeTimeouts = 4
)

// armFrameTimeout schedules the stuck-frame check for one released (or
// resubmitted) frame; callers pass two periods after the (re)submission,
// one period past its deadline. Timeouts past the end of the run are not
// armed; end-of-run expiry accounts for those frames.
func (r *Runner) armFrameTimeout(fs *flowState, frame int, at sim.Time) {
	if at >= r.opts.Duration {
		return
	}
	r.p.Eng.At(at, func() { r.checkFrame(fs, frame) })
}

// checkFrame fires when a frame's retry window closes. A frame that
// completed in the meantime is left alone; a stuck frame has its
// in-flight stage jobs aborted and is either resubmitted over the
// baseline DRAM-staged path (with backoff) or abandoned once the retry
// budget is spent.
func (r *Runner) checkFrame(fs *flowState, frame int) {
	rec := fs.record(frame)
	if rec == nil {
		return
	}
	fs.faults++
	r.frameTimeouts++
	if r.phases != nil {
		r.phases.PhaseMark("driver", "fault/timeout/"+fs.spec.Name, r.p.Eng.Now())
	}
	r.spans.Detour(fs.track, frame, "timeout", r.p.Eng.Now())
	attempt := rec.attempts
	if attempt >= retryLimit {
		r.failFrame(fs, frame)
		return
	}
	rec.attempts++
	r.frameRetries++
	r.abortFrameJobs(rec)
	if !fs.degraded && r.p.Mode().Chained() && fs.faults >= degradeTimeouts {
		// The chain keeps faulting: future frames of this flow take the
		// per-frame DRAM-staged path (trading energy for liveness).
		fs.degraded = true
		r.degradedFlows++
		if r.phases != nil {
			r.phases.PhaseMark("driver", "fault/degrade/"+fs.spec.Name, r.p.Eng.Now())
		}
		r.spans.Detour(fs.track, frame, "degrade", r.p.Eng.Now())
	}
	backoff := retryDelay << attempt
	// Detection runs in a timer ISR, then the driver resubmits after the
	// backoff. The baseline path works in every mode because the DRAM
	// rings are always allocated.
	r.timerInterrupt(func() {
		r.p.Eng.After(backoff, func() {
			if fs.record(frame) == nil {
				return
			}
			r.spans.Detour(fs.track, frame, "retry", r.p.Eng.Now())
			r.baselineStage(fs, frame, 0)
			r.armFrameTimeout(fs, frame, r.p.Eng.Now()+2*fs.period)
		})
	})
}

// failFrame abandons a released frame after its retry budget is spent:
// its jobs are aborted and the miss is charged as a QoS violation.
func (r *Runner) failFrame(fs *flowState, frame int) {
	r.spans.Detour(fs.track, frame, "fail", r.p.Eng.Now())
	rec, _ := fs.closeFrame(frame)
	r.abortFrameJobs(&rec)
	fs.qos.Failed()
	r.framesFailed++
	r.timerInterrupt(nil)
}

// abortFrameJobs cancels every in-flight stage job of a frame on its IP.
func (r *Runner) abortFrameJobs(rec *frameRecord) {
	for _, tj := range rec.jobs {
		r.p.IP(tj.kind).Abort(tj.job)
	}
	rec.jobs = nil
}

// timerInterrupt delivers the recovery layer's watchdog-timer ISR. Unlike
// IP completion interrupts it cannot be "lost" by the injector (the local
// APIC timer does not cross the faulty fabric), so it draws no fault
// randomness.
func (r *Runner) timerInterrupt(then func()) {
	r.p.CPU.Interrupt(0, &cpu.Task{Label: "isr-timeout", Duration: isr, OnDone: then})
}

// onLaneFault handles a hardware lane quarantine: rebind every chain hop
// that used the lane to a healthy one, then immediately retry the frames
// whose jobs were stranded on it.
func (r *Runner) onLaneFault(kind ipcore.Kind, lane int, stranded []*ipcore.Job) {
	for _, fs := range r.flows {
		for s, st := range fs.spec.Stages {
			if st.Kind == kind && fs.lanes[s] == lane {
				fs.lanes[s] = r.moveLane(kind, lane)
			}
		}
	}
	for i, j := range stranded {
		sameFrame := func(k *ipcore.Job) bool { return k.FlowID == j.FlowID && k.Frame == j.Frame }
		if slices.ContainsFunc(stranded[:i], sameFrame) {
			continue // the frame is retried once however many jobs it stranded
		}
		r.checkFrame(r.flows[j.FlowID], j.Frame)
	}
}
