package vip

import (
	"fmt"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/sim"
)

// IP names an accelerator core kind, for building custom flows.
type IP string

// The IP kinds of Table 1.
const (
	VideoDecoder IP = "VD"
	VideoEncoder IP = "VE"
	GPU          IP = "GPU"
	Display      IP = "DC"
	AudioDecoder IP = "AD"
	AudioEncoder IP = "AE"
	Camera       IP = "CAM"
	ImageProc    IP = "IMG"
	Speaker      IP = "SND"
	Microphone   IP = "MIC"
	Network      IP = "NW"
	Storage      IP = "MMC"
)

func (ip IP) kind() (ipcore.Kind, error) {
	for k := 0; k < ipcore.NumKinds; k++ {
		if ipcore.Kind(k).String() == string(ip) {
			return ipcore.Kind(k), nil
		}
	}
	return 0, fmt.Errorf("vip: unknown IP %q", string(ip))
}

// Frame geometry constants (Table 3), in bytes.
const (
	Frame4K      = app.Frame4K
	FrameHD      = app.FrameHD
	FrameCamera  = app.FrameCamera
	FrameAudio   = app.FrameAudio
	FrameRender  = app.FrameRender
	Bitstream4K  = app.BitstreamVideo4K
	BitstreamHD  = app.BitstreamVideoHD
	BitstreamCam = app.BitstreamCamera
)

// AppBuilder assembles a custom application for SimulateApps.
type AppBuilder struct {
	spec app.Spec
	err  error
}

// NewApp starts a custom application. Class hints how frame bursts apply:
// "playback", "encode", "game", or "audio".
func NewApp(id, name, class string) *AppBuilder {
	b := &AppBuilder{spec: app.Spec{ID: id, Name: name}}
	switch class {
	case "playback":
		b.spec.Class = app.ClassPlayback
	case "encode":
		b.spec.Class = app.ClassEncode
	case "game":
		b.spec.Class = app.ClassGame
	case "audio":
		b.spec.Class = app.ClassAudio
	default:
		b.err = fmt.Errorf("vip: unknown app class %q", class)
	}
	return b
}

// GOP sets the group-of-pictures length bounding natural burst sizes.
func (b *AppBuilder) GOP(n int) *AppBuilder {
	b.spec.GOP = n
	return b
}

// TapDriven marks the app as driven by discrete taps (Flappy Bird style).
func (b *AppBuilder) TapDriven() *AppBuilder {
	b.spec.Touch = app.TouchTap
	return b
}

// FlickDriven marks the app as driven by flicks/swipes (Fruit Ninja style).
func (b *AppBuilder) FlickDriven() *AppBuilder {
	b.spec.Touch = app.TouchFlick
	return b
}

// FlowBuilder assembles one pipeline of the application.
type FlowBuilder struct {
	parent *AppBuilder
	flow   app.Flow
}

// Flow starts a pipeline running at fps. inputBytes is what the CPU
// prepares in DRAM for the first IP each frame (0 when the first IP is a
// sensor source).
func (b *AppBuilder) Flow(name string, fps float64, inputBytes int) *FlowBuilder {
	return &FlowBuilder{
		parent: b,
		flow:   app.Flow{Name: name, FPS: fps, InBytes: inputBytes},
	}
}

// Stage appends an IP hop producing outBytes per frame (0 for the final
// sink stage).
func (f *FlowBuilder) Stage(ip IP, outBytes int) *FlowBuilder {
	k, err := ip.kind()
	if err != nil && f.parent.err == nil {
		f.parent.err = err
	}
	f.flow.Stages = append(f.flow.Stages, app.Stage{Kind: k, OutBytes: outBytes})
	return f
}

// CPUWork sets the per-frame application-level CPU preparation cost.
// Its instruction count follows from d: the CPU model retires one
// instruction per nanosecond.
func (f *FlowBuilder) CPUWork(d Duration) *FlowBuilder {
	f.flow.CPUPrep = sim.Time(d)
	return f
}

// Display marks this as the on-screen flow whose deadline defines QoS.
func (f *FlowBuilder) Display() *FlowBuilder {
	f.flow.Display = true
	return f
}

// Done attaches the flow to its application.
func (f *FlowBuilder) Done() *AppBuilder {
	f.parent.spec.Flows = append(f.parent.spec.Flows, f.flow)
	return f.parent
}

// Build validates and returns the application spec for SimulateApps.
func (b *AppBuilder) Build() (app.Spec, error) {
	if b.err != nil {
		return app.Spec{}, b.err
	}
	if err := b.spec.Validate(); err != nil {
		return app.Spec{}, err
	}
	return b.spec, nil
}
