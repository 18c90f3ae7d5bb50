package telemetry

import (
	"fmt"
	"io"
	"strings"

	"github.com/vipsim/vip/internal/sim"
)

// The "phase" category is the activity timeline behind viptrace and
// Scenario.ChromeTrace: IP phase residencies (compute, memstall,
// flowstall), CPU task spans, job-completion and fault marks, and the
// driver's frame spans. It makes scheduling pathologies — head-of-line
// blocking, context-switch thrash, memory-stall inflation — directly
// visible. It is sub-frame-granular, so only a recorder from
// NewPhaseRecorder keeps it, and WriteJSONL, WriteChrome and Spans leave
// it out.
const phaseCat = "phase"

// NewPhaseRecorder returns an empty recorder that also records the
// phase category.
func NewPhaseRecorder() *Recorder { return &Recorder{lastPhase: make(map[string]int)} }

// Phases returns r when it records the phase category and nil
// otherwise. Models take it once at construction, so with no phase
// timeline asked for, a phase site costs one nil test.
func (r *Recorder) Phases() *Recorder {
	if r == nil || r.lastPhase == nil {
		return nil
	}
	return r
}

// Phase records that track was doing name from start to end. A span that
// starts where the track's latest phase span of the same name ends
// extends that span instead, marks in between notwithstanding, which
// keeps sub-frame phase timelines compact. Inverted spans are dropped.
func (r *Recorder) Phase(track, name string, start, end sim.Time) {
	if r.Phases() == nil || end < start {
		return
	}
	if i, ok := r.lastPhase[track]; ok {
		s := &r.phase[i]
		if s.Name == name && s.Start+s.Dur == start {
			s.Dur = end - s.Start
			return
		}
	}
	r.phase = append(r.phase, Span{Track: track, Cat: phaseCat, Name: name, Start: start, Dur: end - start})
	r.lastPhase[track] = len(r.phase) - 1
}

// PhaseMark records an instant on track in the phase category.
func (r *Recorder) PhaseMark(track, name string, at sim.Time) {
	if r.Phases() == nil {
		return
	}
	r.phase = append(r.phase, Span{Track: track, Cat: phaseCat, Name: name, Start: at})
}

// PhaseLen reports the number of recorded phase spans and marks.
func (r *Recorder) PhaseLen() int {
	if r == nil {
		return 0
	}
	return len(r.phase)
}

// WritePhaseChrome writes the phase category as a Chrome/Perfetto trace
// JSON array: one named track per phase track in first-seen order of
// recording, spans sorted by start time.
func (r *Recorder) WritePhaseChrome(w io.Writer) error {
	var phase []Span
	if r != nil {
		phase = r.phase
	}
	return writeChrome(w, tracksOf(phase), sortedByStart(phase))
}

// WritePhaseTimeline renders an ASCII timeline of [from, to) with the
// given column width in simulated time per character. Each phase track
// is one row; a character is the first letter of the span under it
// recorded last, '.' for idle.
func (r *Recorder) WritePhaseTimeline(w io.Writer, from, to sim.Time, perChar sim.Time) {
	if r == nil || perChar <= 0 || to <= from {
		return
	}
	cols := int((to - from) / perChar)
	if cols > 200 {
		cols = 200
	}
	fmt.Fprintf(w, "timeline %v .. %v (%v/char)\n", from, from+sim.Time(cols)*perChar, perChar)
	for _, track := range tracksOf(r.phase) {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range r.phase {
			if s.Track != track || s.Dur == 0 {
				continue
			}
			lo := int((s.Start - from) / perChar)
			// Exclusive upper bound: a span ending exactly on a column
			// boundary must not paint the following column.
			hiEx := int((s.Start + s.Dur - from + perChar - 1) / perChar)
			ch := byte('#')
			if s.Name != "" {
				ch = s.Name[0]
			}
			for c := max(lo, 0); c < hiEx && c < cols; c++ {
				row[c] = ch
			}
		}
		fmt.Fprintf(w, "%-10s %s\n", clip(track, 10), row)
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// PhaseSummary renders per-track phase span counts and busy time.
func (r *Recorder) PhaseSummary() string {
	if r.PhaseLen() == 0 {
		return "trace: empty\n"
	}
	type agg struct {
		n    int
		busy sim.Time
	}
	m := make(map[string]*agg)
	for _, s := range r.phase {
		a := m[s.Track]
		if a == nil {
			a = &agg{}
			m[s.Track] = a
		}
		a.n++
		a.busy += s.Dur
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events on %d tracks\n", len(r.phase), len(m))
	for _, t := range tracksOf(r.phase) {
		fmt.Fprintf(&b, "  %-12s %6d events, %v busy\n", t, m[t].n, m[t].busy)
	}
	return b.String()
}
