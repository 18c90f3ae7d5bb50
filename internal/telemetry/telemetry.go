// Package telemetry records the sim-time spans of a simulation — causal,
// per-frame spans of where each frame's time went as it hopped its IP
// chain, and a phase timeline of what every IP, CPU core and flow was
// doing, when — and the wall-clock request spans of the serving layer.
// The two clock domains never mix:
//
//   - Sim-time spans (Span, Recorder) are stamped exclusively from the
//     deterministic engine clock. Same scenario, same seed — byte-identical
//     span log and phase timeline, which the reproducibility tests pin.
//     This file and its exports must therefore never read the host clock;
//     the viplint `walltime` rule enforces that.
//
//   - Wall-clock request spans (RequestSpan, reqspan.go) carry host-side
//     HTTP stage latencies. They are data holders only: the serving layer
//     reads its own clock and hands durations in, so no wall-clock call
//     appears in this package either.
//
// The Recorder follows the repository's probe discipline: a nil
// *Recorder is valid and records nothing, so model code calls it
// unconditionally at zero cost when tracing is off.
package telemetry

import (
	"fmt"
	"sort"

	"github.com/vipsim/vip/internal/sim"
)

// Span is one recorded interval (or instant, when End == Start) on a
// named track. Categories partition the stream: "frame" for frame
// lifecycle, "hop" for per-stage queue/service segments, "qos" for
// deadline outcomes, "recovery" for fault detours, and "phase" for the
// activity timeline (phase.go), which the span log leaves out.
type Span struct {
	Track string   `json:"track"`
	Cat   string   `json:"cat"`
	Name  string   `json:"name"`
	Start sim.Time `json:"start_ns"`
	Dur   sim.Time `json:"dur_ns"`
	Attrs []Attr   `json:"attrs,omitempty"`
}

// Attr is one key/value annotation. Values are int64 or string only,
// which keeps every export byte-deterministic (no floats to format).
type Attr struct {
	Key string `json:"k"`
	Val any    `json:"v"`
}

// I64 builds an integer attribute.
func I64(k string, v int64) Attr { return Attr{Key: k, Val: v} }

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Val: v} }

// Recorder accumulates sim-time spans in memory. A nil *Recorder is a
// valid no-op probe. The engine is single-threaded, so no locking: spans
// arrive in deterministic event order.
type Recorder struct {
	spans []Span
	// phase holds the "phase" category apart from spans, so the span
	// log's exports never see it. lastPhase maps a track to the index in
	// phase of its latest span; it is non-nil only on a recorder from
	// NewPhaseRecorder, and that is the category's switch.
	phase     []Span
	lastPhase map[string]int
}

// NewRecorder returns an empty recorder of the span log alone.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit records one span. No-op on a nil recorder or negative duration.
func (r *Recorder) Emit(s Span) {
	if r == nil || s.Dur < 0 {
		return
	}
	r.spans = append(r.spans, s)
}

// Instant records a zero-duration span.
func (r *Recorder) Instant(track, cat, name string, at sim.Time, attrs ...Attr) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, Span{Track: track, Cat: cat, Name: name, Start: at, Attrs: attrs})
}

// Spans returns a copy of the recording, less the phase category,
// stably sorted by start time (ties keep emission order, which is
// deterministic).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return sortedByStart(r.spans)
}

// sortedByStart returns a copy of spans stably sorted by start time.
func sortedByStart(spans []Span) []Span {
	out := make([]Span, len(spans))
	copy(out, spans)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// ---- Domain emitters: the vocabulary the driver and IP models speak ----

// FrameSubmit marks a frame's release into the driver on the flow track.
// The release instant may lie ahead of the emission time (burst headers
// pace descriptors into the future); the sorted export orders it correctly.
func (r *Recorder) FrameSubmit(track string, frame int, at sim.Time) {
	r.Instant(track, "frame", fmt.Sprintf("submit/f%d", frame), at)
}

// FrameDrop marks a frame dropped at release because the driver queue
// (core's maxBacklog) was full.
func (r *Recorder) FrameDrop(track string, frame int, at sim.Time) {
	r.Instant(track, "frame", fmt.Sprintf("drop/f%d", frame), at)
}

// Frame records a completed frame's release-to-display interval with its
// QoS outcome, and an extra "qos" instant when the deadline was missed.
func (r *Recorder) Frame(track string, frame int, release, start, end, deadline sim.Time, onTime bool) {
	if r == nil {
		return
	}
	outcome := "met"
	if !onTime {
		outcome = "missed"
	}
	r.Emit(Span{
		Track: track, Cat: "frame", Name: fmt.Sprintf("f%d", frame),
		Start: release, Dur: end - release,
		Attrs: []Attr{
			I64("start_ns", int64(start)),
			I64("deadline_ns", int64(deadline)),
			Str("qos", outcome),
		},
	})
	if !onTime {
		r.Instant(track, "qos", fmt.Sprintf("miss/f%d", frame), end)
	}
}

// FrameExpired marks a frame that never completed within the run and was
// charged as a violation at end-of-run accounting.
func (r *Recorder) FrameExpired(track string, frame int, deadline sim.Time) {
	r.Instant(track, "qos", fmt.Sprintf("expired/f%d", frame), deadline)
}

// Detour marks a fault-recovery action (kind: "timeout", "retry",
// "degrade", "fail") taken for a frame on the flow track.
func (r *Recorder) Detour(track string, frame int, kind string, at sim.Time) {
	r.Instant(track, "recovery", fmt.Sprintf("%s/f%d", kind, frame), at)
}

// Hop records one (frame, stage) job's passage through an IP core as two
// spans on the hop track "flow<F>/s<S>:<IP>": the lane queue wait
// (submit to first dispatch) and the service interval (first dispatch to
// retirement), the latter annotated with the time the job spent waiting
// on DRAM and on the NoC and the bytes it moved.
func (r *Recorder) Hop(ip string, lane, flow, frame, stage int,
	submitted, started, finished sim.Time, dramNS, nocNS int64, bytesIn, bytesOut int) {
	if r == nil {
		return
	}
	track := fmt.Sprintf("flow%d/s%d:%s", flow, stage, ip)
	if started > submitted {
		r.Emit(Span{
			Track: track, Cat: "hop", Name: fmt.Sprintf("f%d/queue", frame),
			Start: submitted, Dur: started - submitted,
		})
	}
	r.Emit(Span{
		Track: track, Cat: "hop", Name: fmt.Sprintf("f%d/service", frame),
		Start: started, Dur: finished - started,
		Attrs: []Attr{
			I64("lane", int64(lane)),
			I64("dram_ns", dramNS),
			I64("noc_ns", nocNS),
			I64("bytes_in", int64(bytesIn)),
			I64("bytes_out", int64(bytesOut)),
		},
	})
}
