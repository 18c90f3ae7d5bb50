// Package workload defines the applications of Table 1 (A1–A7) and the
// two-application workload mixes of Table 2 (W1–W8) used throughout the
// paper's evaluation.
//
// Each application is a set of concurrent IP flows. Flow notation follows
// Table 1, e.g. Skype (A4) is "CPU - VD - DC; CAM - VE - NW; AD - SND;
// MIC - AE - NW". Frame geometry comes from Table 3: 4K video frames,
// 2560x1620 camera frames, 16 KB audio frames, 60 FPS required rate.
package workload

import (
	"fmt"
	"slices"
	"strings"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/sim"
)

// Standard sub-flows shared by several applications.

// videoPlaybackFlow is the playback pipeline of Figure 1: decoder, GPU
// composition pass, display. (Table 1 abbreviates it "CPU - VD - DC";
// Figure 1 and the paper's per-app bandwidth numbers include the GPU.)
func videoPlaybackFlow(name string, frameBytes, bitstream int) app.Flow {
	return app.Flow{
		Name: name, FPS: 60, InBytes: bitstream,
		Stages: []app.Stage{
			{Kind: ipcore.VD, OutBytes: frameBytes},
			{Kind: ipcore.GPU, OutBytes: app.FrameRender},
			{Kind: ipcore.DC, OutBytes: 0},
		},
		CPUPrep: 60 * sim.Microsecond, // demux, CSD parsing, AV sync
		Display: true,
	}
}

func audioPlaybackFlow(name string) app.Flow {
	return app.Flow{
		Name: name, FPS: 60, InBytes: app.BitstreamAudio,
		Stages: []app.Stage{
			{Kind: ipcore.AD, OutBytes: app.FrameAudio},
			{Kind: ipcore.SND, OutBytes: 0},
		},
		CPUPrep: 4 * sim.Microsecond,
	}
}

func micCaptureFlow(name string) app.Flow {
	return app.Flow{
		Name: name, FPS: 60,
		Stages: []app.Stage{
			{Kind: ipcore.MIC, OutBytes: app.FrameAudio},
			{Kind: ipcore.AE, OutBytes: app.BitstreamAudio},
			{Kind: ipcore.NW, OutBytes: 0},
		},
		CPUPrep: 4 * sim.Microsecond,
	}
}

func gameRenderFlow(name string) app.Flow {
	return app.Flow{
		Name: name, FPS: 60, InBytes: 256 << 10, // scene/command buffers
		Stages: []app.Stage{
			{Kind: ipcore.GPU, OutBytes: app.FrameRender},
			{Kind: ipcore.DC, OutBytes: 0},
		},
		CPUPrep: 120 * sim.Microsecond, // game logic per frame
		Display: true,
	}
}

func cameraEncodeFlow(name string, sink ipcore.Kind) app.Flow {
	return app.Flow{
		Name: name, FPS: 60,
		Stages: []app.Stage{
			{Kind: ipcore.CAM, OutBytes: app.FrameCamera},
			{Kind: ipcore.VE, OutBytes: app.BitstreamCamera},
			{Kind: sink, OutBytes: 0},
		},
		CPUPrep: 20 * sim.Microsecond,
	}
}

// table1 lists the Table 1 applications in paper order, each with the
// builder of its spec. Each call builds a fresh copy, and App builds
// only the one it is asked for.
var table1 = []struct {
	id    string
	build func() app.Spec
}{
	{"A1", func() app.Spec {
		return app.Spec{
			ID: "A1", Name: "Game-1", Class: app.ClassGame, Touch: app.TouchTap,
			Flows: []app.Flow{
				gameRenderFlow("gpu-dc"),
				audioPlaybackFlow("ad-snd"),
			},
		}
	}},
	{"A2", func() app.Spec {
		return app.Spec{
			ID: "A2", Name: "AR-Game", Class: app.ClassGame, Touch: app.TouchFlick,
			Flows: []app.Flow{
				gameRenderFlow("gpu-dc"),
				{
					Name: "cpu-ve-nw", FPS: 30, InBytes: app.FrameHD,
					Stages: []app.Stage{
						{Kind: ipcore.VE, OutBytes: app.BitstreamVideoHD},
						{Kind: ipcore.NW, OutBytes: 0},
					},
					CPUPrep: 30 * sim.Microsecond,
				},
				audioPlaybackFlow("ad-snd"),
				micCaptureFlow("mic-ae-nw"),
			},
		}
	}},
	{"A3", func() app.Spec {
		return app.Spec{
			ID: "A3", Name: "Audio-Play", Class: app.ClassAudio, GOP: 16,
			Flows: []app.Flow{
				func() app.Flow {
					f := audioPlaybackFlow("cpu-ad-snd")
					f.Display = false
					return f
				}(),
				{
					// Low-rate UI refresh: CPU-composited frames to DC.
					Name: "cpu-dc", FPS: 10, InBytes: app.FrameRender,
					Stages:  []app.Stage{{Kind: ipcore.DC, OutBytes: 0}},
					CPUPrep: 15 * sim.Microsecond,
					Display: true,
				},
			},
		}
	}},
	{"A4", func() app.Spec {
		return app.Spec{
			ID: "A4", Name: "Skype", Class: app.ClassEncode, GOP: 10,
			Flows: []app.Flow{
				videoPlaybackFlow("cpu-vd-dc", app.FrameHD, app.BitstreamVideoHD),
				cameraEncodeFlow("cam-ve-nw", ipcore.NW),
				audioPlaybackFlow("ad-snd"),
				micCaptureFlow("mic-ae-nw"),
			},
		}
	}},
	{"A5", func() app.Spec {
		return app.Spec{
			ID: "A5", Name: "Video Player", Class: app.ClassPlayback, GOP: 16,
			Flows: []app.Flow{
				videoPlaybackFlow("cpu-vd-dc", app.Frame4K, app.BitstreamVideo4K),
				audioPlaybackFlow("ad-snd"),
			},
		}
	}},
	{"A6", func() app.Spec {
		return app.Spec{
			ID: "A6", Name: "Video Record", Class: app.ClassEncode, GOP: 10,
			Flows: []app.Flow{
				{
					Name: "cam-img-dc", FPS: 60,
					Stages: []app.Stage{
						{Kind: ipcore.CAM, OutBytes: app.FrameCamera},
						{Kind: ipcore.IMG, OutBytes: app.FrameCamera},
						{Kind: ipcore.DC, OutBytes: 0},
					},
					CPUPrep: 20 * sim.Microsecond,
					Display: true,
				},
				cameraEncodeFlow("cam-ve-mmc", ipcore.MMC),
				func() app.Flow {
					f := micCaptureFlow("mic-ae-mmc")
					f.Stages[2].Kind = ipcore.MMC
					return f
				}(),
			},
		}
	}},
	{"A7", func() app.Spec {
		return app.Spec{
			ID: "A7", Name: "Youtube", Class: app.ClassPlayback, GOP: 16,
			Flows: []app.Flow{
				videoPlaybackFlow("cpu-vd-dc", app.FrameHD, app.BitstreamVideoHD),
				audioPlaybackFlow("ad-snd"),
			},
		}
	}},
}

// AppIDs lists the Table 1 application identifiers in paper order.
func AppIDs() []string {
	ids := make([]string, len(table1))
	for i, a := range table1 {
		ids[i] = a.id
	}
	return ids
}

// App returns one Table 1 application or an error for unknown ids.
func App(id string) (app.Spec, error) {
	build, ok := builder(id)
	if !ok {
		return app.Spec{}, unknownApp(id)
	}
	return build(), nil
}

// builder returns the Table 1 builder of id.
func builder(id string) (func() app.Spec, bool) {
	for _, a := range table1 {
		if a.id == id {
			return a.build, true
		}
	}
	return nil, false
}

// unknownApp is the error for an id that names no Table 1 application.
func unknownApp(id string) error { return fmt.Errorf("workload: unknown application %q", id) }

// Workload is a Table 2 multi-application mix.
type Workload struct {
	ID      string
	UseCase string
	AppIDs  []string
}

// Workloads returns the Table 2 two-application mixes in order W1..W8.
func Workloads() []Workload {
	return []Workload{
		{ID: "W1", UseCase: "Concurrent multiple Video Playback from disk", AppIDs: []string{"A5", "A5"}},
		{ID: "W2", UseCase: "Concurrent multiple Video Playback", AppIDs: []string{"A5", "A7", "A7"}},
		{ID: "W3", UseCase: "Youtube video played with video on disk", AppIDs: []string{"A5", "A7"}},
		{ID: "W4", UseCase: "Watching video while teleconferencing", AppIDs: []string{"A4", "A5"}},
		{ID: "W5", UseCase: "Online multi-player gaming", AppIDs: []string{"A1", "A4"}},
		{ID: "W6", UseCase: "Music playback from disk while gaming", AppIDs: []string{"A2", "A3"}},
		{ID: "W7", UseCase: "Recording while playing another video", AppIDs: []string{"A5", "A6"}},
		{ID: "W8", UseCase: "Multiplayer gaming with video-streaming", AppIDs: []string{"A5", "A2"}},
	}
}

// table2 is Table 2 built once for lookups: Expand reads it in place,
// so expanding a workload id allocates no table.
var table2 = Workloads()

// ByID returns a Table 2 workload by identifier.
func ByID(id string) (Workload, error) {
	w, ok := lookup(id)
	if !ok {
		return Workload{}, unknownWorkload(id)
	}
	w.AppIDs = slices.Clone(w.AppIDs)
	return w, nil
}

// lookup returns id's entry of table2, sharing its AppIDs.
func lookup(id string) (Workload, bool) {
	for _, w := range table2 {
		if w.ID == id {
			return w, true
		}
	}
	return Workload{}, false
}

// unknownWorkload is the error for an id that names no Table 2 workload.
func unknownWorkload(id string) error { return fmt.Errorf("workload: unknown workload %q", id) }

// Expand flattens Table 1 application ids and Table 2 workload ids into
// the application ids a run simulates: each workload id becomes its app
// mix in place, so order is kept. It fails on the first id that names
// neither, and builds no spec, so hashing a scenario stays cheap.
func Expand(ids []string) ([]string, error) {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if strings.HasPrefix(id, "W") {
			w, ok := lookup(id)
			if !ok {
				return nil, unknownWorkload(id)
			}
			out = append(out, w.AppIDs...)
			continue
		}
		if _, ok := builder(id); !ok {
			return nil, unknownApp(id)
		}
		out = append(out, id)
	}
	return out, nil
}
