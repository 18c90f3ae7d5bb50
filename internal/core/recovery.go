package core

import (
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
	if _, ok := fs.unfinished[frame]; !ok {
		return
	}
	fs.faults++
	r.frameTimeouts++
	r.mFrameTimeouts.Inc()
	if r.phases != nil {
		r.phases.PhaseMark("driver", "fault/timeout/"+fs.spec.Name, r.p.Eng.Now())
	}
	r.spans.Detour(fs.track, frame, "timeout", r.p.Eng.Now())
	attempt := fs.attempts[frame]
	if attempt >= retryLimit {
		r.failFrame(fs, frame)
		return
	}
	fs.attempts[frame] = attempt + 1
	r.frameRetries++
	r.mFrameRetries.Inc()
	r.abortFrameJobs(fs, frame)
	if !fs.degraded && r.p.Mode().Chained() && fs.faults >= degradeTimeouts {
		// The chain keeps faulting: future frames of this flow take the
		// per-frame DRAM-staged path (trading energy for liveness).
		fs.degraded = true
		r.degradedFlows++
		r.mDegraded.Inc()
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
			if _, ok := fs.unfinished[frame]; !ok {
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
	r.abortFrameJobs(fs, frame)
	delete(fs.unfinished, frame)
	delete(fs.firstJob, frame)
	delete(fs.attempts, frame)
	fs.inFlight--
	fs.qos.Failed()
	r.framesFailed++
	r.mFramesFailed.Inc()
	r.mViolations.Inc()
	r.timerInterrupt(nil)
}

// abortFrameJobs cancels every in-flight stage job of a frame on its IP.
func (r *Runner) abortFrameJobs(fs *flowState, frame int) {
	for _, tj := range fs.jobs[frame] {
		r.p.IP(tj.kind).Abort(tj.job)
	}
	delete(fs.jobs, frame)
}

// timerInterrupt delivers the recovery layer's watchdog-timer ISR. Unlike
// IP completion interrupts it cannot be "lost" by the injector (the local
// APIC timer does not cross the faulty fabric), so it draws no fault
// randomness.
func (r *Runner) timerInterrupt(then func()) {
	r.p.CPU.Interrupt(0, &cpu.Task{Label: "isr-timeout", Duration: isr, Instr: instrFor(isr), OnDone: then})
}

// onLaneFault handles a hardware lane quarantine: rebind every chain hop
// that used the lane to a healthy one, then immediately retry the frames
// whose jobs were stranded on it.
func (r *Runner) onLaneFault(kind ipcore.Kind, lane int, stranded []*ipcore.Job) {
	for _, fs := range r.flows {
		for s, k := range fs.chain.Kinds {
			if k == kind && fs.chain.Lanes[s] == lane {
				fs.chain.Lanes[s] = r.cm.moveLane(kind, lane)
			}
		}
	}
	seen := make(map[[2]int]bool)
	for _, j := range stranded {
		key := [2]int{j.FlowID, j.Frame}
		if seen[key] {
			continue
		}
		seen[key] = true
		fs := r.flows[j.FlowID]
		if _, ok := fs.unfinished[j.Frame]; !ok {
			continue
		}
		r.checkFrame(fs, j.Frame)
	}
}
