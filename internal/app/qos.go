package app

import (
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/stats"
)

// QoS tracks per-frame deadline behaviour for one flow: a frame released
// at time R with period P must complete (be displayed / transmitted) by
// R+P. Completing later is a QoS violation. A frame is dropped at the
// source only when the flow already has the driver's queue depth of
// frames in flight (core's maxBacklog); the display then repeats the
// previous frame (the frame-drop rate of Figure 18).
type QoS struct {
	Period sim.Time

	released  int
	completed int
	violated  int
	dropped   int

	totalFlow sim.Time
	maxFlow   sim.Time
	flowDist  stats.Sample
}

// NewQoS builds a tracker for the given period.
func NewQoS(period sim.Time) *QoS {
	return &QoS{Period: period}
}

// Deadline returns the absolute deadline of a frame released at r.
func (q *QoS) Deadline(r sim.Time) sim.Time { return r + q.Period }

// Released records a frame entering the pipeline.
func (q *QoS) Released() { q.released++ }

// Dropped records a frame abandoned before entering the pipeline.
func (q *QoS) Dropped() { q.dropped++ }

// Completed records a frame finishing at time at. The deadline is judged
// against the nominal release r; the flow time (pipeline traversal) is
// measured from started — the instant the frame's first stage began — so
// that run-ahead burst frames are not credited with negative latency.
func (q *QoS) Completed(r, started, at sim.Time) bool {
	q.completed++
	ft := at - started
	if ft < 0 {
		ft = 0
	}
	q.flowDist.Add(ft.Milliseconds())
	q.totalFlow += ft
	if ft > q.maxFlow {
		q.maxFlow = ft
	}
	if at > q.Deadline(r) {
		q.violated++
		return false
	}
	return true
}

// Expired records a released frame that never completed although its
// deadline has passed (pipeline backlog at the end of a run). It counts
// as a violation.
func (q *QoS) Expired() { q.violated++ }

// Failed records a released frame the driver's recovery layer abandoned
// after exhausting its retries. Like Expired it counts as a violation
// without counting as a completion.
func (q *QoS) Failed() { q.violated++ }

// Frames reports how many frames were offered (completed + dropped +
// in flight).
func (q *QoS) Frames() int { return q.released + q.dropped }

// CompletedFrames reports frames that finished the pipeline.
func (q *QoS) CompletedFrames() int { return q.completed }

// DroppedFrames reports frames abandoned at the source.
func (q *QoS) DroppedFrames() int { return q.dropped }

// Violations reports deadline misses plus drops — the paper's combined
// QoS-violation count.
func (q *QoS) Violations() int { return q.violated + q.dropped }

// ViolationRate reports Violations over offered frames.
func (q *QoS) ViolationRate() float64 {
	f := q.Frames()
	if f == 0 {
		return 0
	}
	return float64(q.Violations()) / float64(f)
}

// AvgFlowTime reports the mean release-to-completion latency.
func (q *QoS) AvgFlowTime() sim.Time {
	if q.completed == 0 {
		return 0
	}
	return q.totalFlow / sim.Time(q.completed)
}

// MaxFlowTime reports the worst-case flow time.
func (q *QoS) MaxFlowTime() sim.Time { return q.maxFlow }

// P95FlowTimeMS and P99FlowTimeMS report the latency-tail percentiles in
// milliseconds; a 99th-percentile frame past its deadline is a visible
// stutter even when the mean looks healthy.
func (q *QoS) P95FlowTimeMS() float64 { return q.flowDist.P95() }

// P99FlowTimeMS reports the 99th percentile of flow time (ms).
func (q *QoS) P99FlowTimeMS() float64 { return q.flowDist.P99() }

// AchievedFPS reports the effective displayed frame rate over dur: frames
// that completed on time or late (but not dropped) per second.
func (q *QoS) AchievedFPS(dur sim.Time) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(q.completed) / dur.Seconds()
}
