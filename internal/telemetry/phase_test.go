package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"github.com/vipsim/vip/internal/sim"
)

// TestPhaseNilRecorderIsValidTracer: the phase methods keep the probe
// discipline too, so a nil recorder records nothing and says it is empty.
func TestPhaseNilRecorderIsValidTracer(t *testing.T) {
	var r *Recorder
	r.Phase("VD", "compute", 0, 10) // must not panic
	r.PhaseMark("VD", "done", 10)
	if r.Phases() != nil || r.PhaseLen() != 0 {
		t.Error("nil recorder should hold no phase spans")
	}
	if !strings.Contains(r.PhaseSummary(), "empty") {
		t.Error("nil phase summary should say empty")
	}
	var buf bytes.Buffer
	if err := r.WritePhaseChrome(&buf); err != nil {
		t.Errorf("nil WritePhaseChrome: %v", err)
	}
	r.WritePhaseTimeline(&buf, 0, 10, 1)
}

func TestPhaseSpanAndMark(t *testing.T) {
	r := NewPhaseRecorder()
	r.Phase("VD", "compute", 10, 20)
	r.PhaseMark("VD", "frame", 20)
	r.Phase("DC", "compute", 5, 8)
	if r.PhaseLen() != 3 {
		t.Fatalf("PhaseLen = %d", r.PhaseLen())
	}
	if s := sortedByStart(r.phase); s[0].Track != "DC" {
		t.Error("phase spans should sort by start time")
	}
	if tracks := tracksOf(r.phase); len(tracks) != 2 || tracks[0] != "VD" {
		t.Errorf("tracks = %v", tracks)
	}
}

func TestPhaseMerging(t *testing.T) {
	r := NewPhaseRecorder()
	// Back-to-back same-name spans merge (sub-frame phase coalescing),
	// across a mark and a span-log span on the same track.
	r.Phase("VD", "compute", 0, 10)
	r.PhaseMark("VD", "f0", 10)
	r.Hop("VD", 0, 0, 0, 0, 0, 2, 10, 0, 0, 1, 1)
	r.Phase("VD", "compute", 10, 25)
	if r.PhaseLen() != 2 {
		t.Fatalf("adjacent spans should merge, got %d", r.PhaseLen())
	}
	if r.phase[0].Dur != 25 {
		t.Errorf("merged dur = %v", r.phase[0].Dur)
	}
	// Another track's span does not break the merge.
	r.Phase("DC", "compute", 25, 30)
	r.Phase("VD", "compute", 25, 30)
	if r.PhaseLen() != 3 || r.phase[0].Dur != 30 {
		t.Errorf("merge across tracks: len %d, dur %v", r.PhaseLen(), r.phase[0].Dur)
	}
	// A gap prevents merging.
	r.Phase("VD", "compute", 35, 40)
	if r.PhaseLen() != 4 {
		t.Error("gapped spans must not merge")
	}
	// A different name prevents merging.
	r.Phase("VD", "memstall", 40, 50)
	if r.PhaseLen() != 5 {
		t.Error("different names must not merge")
	}
}

func TestPhaseInvertedSpanIgnored(t *testing.T) {
	r := NewPhaseRecorder()
	r.Phase("VD", "x", 10, 5)
	if r.PhaseLen() != 0 {
		t.Error("inverted span should be dropped")
	}
}

// TestPhaseLeftOutOfSpanLog: the phase category is off on a plain
// recorder, and a phase recorder's span log exports the same bytes as a
// plain recorder's.
func TestPhaseLeftOutOfSpanLog(t *testing.T) {
	plain := sample()
	plain.Phase("VD", "compute", 0, 10)
	plain.PhaseMark("VD", "f0", 10)
	if plain.Phases() != nil || plain.PhaseLen() != 0 {
		t.Error("a plain recorder recorded the phase category")
	}
	phased := NewPhaseRecorder()
	phased.Phase("VD", "compute", 0, 10)
	recordSample(phased)
	phased.PhaseMark("VD", "f0", 10)
	if phased.Phases() != phased || phased.PhaseLen() != 2 {
		t.Fatal("a phase recorder lost its phase category")
	}
	if len(phased.Spans()) != len(plain.Spans()) {
		t.Error("Spans counts the phase category")
	}
	for _, write := range []func(*Recorder, io.Writer) error{(*Recorder).WriteJSONL, (*Recorder).WriteChrome} {
		var a, b bytes.Buffer
		if err := write(plain, &a); err != nil {
			t.Fatal(err)
		}
		if err := write(phased, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) || strings.Contains(b.String(), phaseCat) {
			t.Errorf("span log export carries the phase category:\n%s", b.String())
		}
	}
}

func TestWritePhaseChrome(t *testing.T) {
	r := NewPhaseRecorder()
	r.Phase("VD", "compute", 1000, 3000)
	r.PhaseMark("VD", "frame", 3000)
	var buf bytes.Buffer
	if err := r.WritePhaseChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	// thread_name metadata + span + mark.
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	var sawMeta, sawSpan, sawMark bool
	for _, e := range evs {
		switch e["ph"] {
		case "M":
			sawMeta = true
		case "X":
			sawSpan = true
			if e["dur"].(float64) != 2 { // 2000ns = 2us
				t.Errorf("span dur = %v us, want 2", e["dur"])
			}
		case "i":
			sawMark = true
		}
	}
	if !sawMeta || !sawSpan || !sawMark {
		t.Error("missing chrome event kinds")
	}
}

func TestWritePhaseChromeGolden(t *testing.T) {
	r := NewPhaseRecorder()
	r.Phase("VD", "compute", 1000, 3000)
	r.PhaseMark("VD", "frame", 3000)
	var buf bytes.Buffer
	if err := r.WritePhaseChrome(&buf); err != nil {
		t.Fatal(err)
	}
	golden := `[{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"VD"}},` +
		`{"name":"compute","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"cat":"phase"},` +
		`{"name":"frame","ph":"i","ts":3,"pid":1,"tid":1,"cat":"phase"}]` + "\n"
	if got := buf.String(); got != golden {
		t.Errorf("chrome trace drifted from golden output:\n got: %s\nwant: %s", got, golden)
	}
}

func TestWritePhaseTimeline(t *testing.T) {
	r := NewPhaseRecorder()
	r.Phase("VD", "compute", 0, 5*sim.Millisecond)
	r.Phase("DC", "memstall", 5*sim.Millisecond, 10*sim.Millisecond)
	var buf bytes.Buffer
	r.WritePhaseTimeline(&buf, 0, 10*sim.Millisecond, sim.Millisecond)
	out := buf.String()
	if !strings.Contains(out, "VD") || !strings.Contains(out, "DC") {
		t.Errorf("timeline missing tracks:\n%s", out)
	}
	if !strings.Contains(out, "ccccc") {
		t.Errorf("VD row should show compute chars:\n%s", out)
	}
	// Degenerate calls are no-ops.
	r.WritePhaseTimeline(&buf, 10, 5, 1)
	r.WritePhaseTimeline(&buf, 0, 10, 0)
}

func TestWritePhaseTimelineSpanBound(t *testing.T) {
	r := NewPhaseRecorder()
	// Span covering exactly columns 0 and 1 — ends on the column-2
	// boundary and must not bleed into column 2.
	r.Phase("VD", "compute", 0, 2*sim.Millisecond)
	var buf bytes.Buffer
	r.WritePhaseTimeline(&buf, 0, 4*sim.Millisecond, sim.Millisecond)
	out := buf.String()
	if !strings.Contains(out, "cc..") {
		t.Errorf("span must fill exactly its own columns:\n%s", out)
	}
	if strings.Contains(out, "ccc") {
		t.Errorf("span painted past its end:\n%s", out)
	}
	// A span that only partially covers its last column still paints it.
	r2 := NewPhaseRecorder()
	r2.Phase("VD", "compute", 0, 2*sim.Millisecond+1)
	buf.Reset()
	r2.WritePhaseTimeline(&buf, 0, 4*sim.Millisecond, sim.Millisecond)
	if !strings.Contains(buf.String(), "ccc.") {
		t.Errorf("partial column must round up:\n%s", buf.String())
	}
}

func TestPhaseSummary(t *testing.T) {
	r := NewPhaseRecorder()
	r.Phase("VD", "compute", 0, 100)
	r.Phase("VD", "memstall", 100, 150)
	s := r.PhaseSummary()
	if !strings.Contains(s, "VD") || !strings.Contains(s, "2 events") {
		t.Errorf("PhaseSummary = %q", s)
	}
}

// Property: total recorded busy time equals the sum of inserted durations
// regardless of merging.
func TestPhaseMergeConservesDurationProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		r := NewPhaseRecorder()
		var cursor, want sim.Time
		for i, d := range durs {
			dur := sim.Time(d)
			r.Phase("t", "x", cursor, cursor+dur)
			want += dur
			cursor += dur
			if i%3 == 2 {
				cursor += 5 // gap every third span
			}
		}
		var got sim.Time
		for _, s := range r.phase {
			got += s.Dur
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
