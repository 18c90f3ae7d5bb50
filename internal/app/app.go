// Package app describes the frame-based applications the paper studies:
// their IP flows (Table 1), frame geometry (Table 3), per-frame QoS
// accounting (deadlines, violations, drops, flow time), the GOP structure
// that sizes video frame bursts (§4.3), and the stochastic touch/flick
// user models behind Figures 5 and 6.
package app

import (
	"fmt"

	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/sim"
)

// Frame geometry per Table 3 of the paper.
const (
	// Frame4K is a decoded 4K video frame (3840x2160, NV12 = 1.5 B/px).
	Frame4K = 3840 * 2160 * 3 / 2
	// FrameHD is a decoded 1080p frame.
	FrameHD = 1920 * 1080 * 3 / 2
	// FrameCamera is a captured camera frame (2560x1620, NV12).
	FrameCamera = 2560 * 1620 * 3 / 2
	// FrameAudio is one audio frame (16 KB per Table 3).
	FrameAudio = 16 << 10
	// FrameRender is a composited RGBA render target (1920x1200).
	FrameRender = 1920 * 1200 * 4
	// BitstreamVideo4K is the compressed input per 4K frame (~1 MB).
	BitstreamVideo4K = 1 << 20
	// BitstreamVideoHD is the compressed input per 1080p frame.
	BitstreamVideoHD = 256 << 10
	// BitstreamCamera is the encoder output per camera frame.
	BitstreamCamera = 512 << 10
	// BitstreamAudio is the compressed audio chunk per frame period.
	BitstreamAudio = 4 << 10
)

// Class groups applications by how frame bursts apply to them (§4.3).
type Class int

const (
	// ClassPlayback covers video playing/streaming apps: bursts follow
	// the GOP structure of the stream.
	ClassPlayback Class = iota
	// ClassEncode covers recording apps (camera, Skype uplink): the GOP,
	// and hence the burst size, is under the app's control.
	ClassEncode
	// ClassGame covers interactive apps: bursts are capped for
	// responsiveness and disabled while the user is flicking.
	ClassGame
	// ClassAudio covers audio-dominated apps.
	ClassAudio
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassPlayback:
		return "playback"
	case ClassEncode:
		return "encode"
	case ClassGame:
		return "game"
	case ClassAudio:
		return "audio"
	}
	return "class?"
}

// Stage is one IP hop of a flow. Its input volume is the previous stage's
// output (or the flow's InBytes for the first stage); OutBytes is what it
// hands to the next hop. A sink stage has OutBytes 0.
type Stage struct {
	Kind     ipcore.Kind
	OutBytes int
}

// Flow is one producer-to-consumer pipeline of an application, e.g.
// "CPU - VD - DC" (Table 1). Frames are released every 1/FPS seconds and
// must complete within one period.
type Flow struct {
	Name string
	FPS  float64
	// InBytes is the initial input that stage 0 reads from DRAM (the
	// compressed bitstream the CPU prepared); 0 when stage 0 is a
	// sensor source.
	InBytes int
	Stages  []Stage
	// CPUPrep is per-frame application-level CPU work (e.g. game logic,
	// demuxing) performed before the flow is kicked.
	CPUPrep sim.Time
	// Display marks the flow whose completion is the on-screen frame
	// (QoS is judged on display flows).
	Display bool
}

// Period returns the frame period.
func (f *Flow) Period() sim.Time { return sim.FPS(f.FPS) }

// Validate checks the flow shape.
func (f *Flow) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("app: flow needs a name")
	}
	if f.FPS <= 0 {
		return fmt.Errorf("app: flow %s needs positive FPS", f.Name)
	}
	if len(f.Stages) == 0 {
		return fmt.Errorf("app: flow %s has no stages", f.Name)
	}
	if f.InBytes == 0 && !f.Stages[0].Kind.IsSource() {
		return fmt.Errorf("app: flow %s: first stage %v needs input bytes or a source IP", f.Name, f.Stages[0].Kind)
	}
	in := f.InBytes
	for i, s := range f.Stages {
		last := i == len(f.Stages)-1
		if !last && s.OutBytes <= 0 {
			return fmt.Errorf("app: flow %s stage %d (%v) must produce output", f.Name, i, s.Kind)
		}
		if in == 0 && s.OutBytes == 0 {
			return fmt.Errorf("app: flow %s stage %d (%v) moves no data", f.Name, i, s.Kind)
		}
		in = s.OutBytes
	}
	return nil
}

// StageIn returns stage i's input volume.
func (f *Flow) StageIn(i int) int {
	if i == 0 {
		return f.InBytes
	}
	return f.Stages[i-1].OutBytes
}

// Touch selects the user-interaction model of a game app (§4.3).
type Touch int

const (
	// TouchNone: no interactive input (playback, recording).
	TouchNone Touch = iota
	// TouchTap: discrete taps (Flappy Bird style, Figure 5).
	TouchTap
	// TouchFlick: sustained flicks/swipes (Fruit Ninja style, Figure 6).
	TouchFlick
)

// String names the touch model.
func (t Touch) String() string {
	switch t {
	case TouchTap:
		return "tap"
	case TouchFlick:
		return "flick"
	}
	return "none"
}

// Spec is a complete application: one or more concurrent flows.
type Spec struct {
	ID    string // Table 1 identifier, e.g. "A5"
	Name  string
	Class Class
	Flows []Flow
	// GOP is the group-of-pictures length for codec flows; it bounds
	// the natural frame-burst size (§4.3). Zero means no GOP structure.
	GOP int
	// Touch is the interaction model driving hybrid burst sizing for
	// game apps.
	Touch Touch
}

// Validate checks the spec and all its flows.
func (s *Spec) Validate() error {
	if s.ID == "" || s.Name == "" {
		return fmt.Errorf("app: spec needs ID and name")
	}
	if len(s.Flows) == 0 {
		return fmt.Errorf("app: spec %s has no flows", s.ID)
	}
	display := 0
	for i := range s.Flows {
		if err := s.Flows[i].Validate(); err != nil {
			return fmt.Errorf("app: spec %s: %w", s.ID, err)
		}
		if s.Flows[i].Display {
			display++
		}
	}
	if display == 0 {
		return fmt.Errorf("app: spec %s has no display flow", s.ID)
	}
	return nil
}

// FlowString renders a flow in Table 1 notation, e.g. "CPU - VD - DC".
func (f *Flow) FlowString() string {
	s := ""
	if f.InBytes > 0 && !f.Stages[0].Kind.IsSource() {
		s = "CPU - "
	}
	for i, st := range f.Stages {
		if i > 0 {
			s += " - "
		}
		s += st.Kind.String()
	}
	return s
}
