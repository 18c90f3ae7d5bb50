package app

import (
	"strings"
	"testing"

	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/sim"
)

func videoFlow() Flow {
	return Flow{
		Name: "video", FPS: 60, InBytes: BitstreamVideo4K,
		Stages: []Stage{
			{Kind: ipcore.VD, OutBytes: Frame4K},
			{Kind: ipcore.DC, OutBytes: 0},
		},
		Display: true,
	}
}

func TestFrameGeometry(t *testing.T) {
	if Frame4K != 12441600 {
		t.Errorf("Frame4K = %d", Frame4K)
	}
	if FrameCamera != 6220800 {
		t.Errorf("FrameCamera = %d", FrameCamera)
	}
	if FrameAudio != 16384 {
		t.Errorf("FrameAudio = %d, want 16KB per Table 3", FrameAudio)
	}
}

func TestFlowValidate(t *testing.T) {
	f := videoFlow()
	if err := f.Validate(); err != nil {
		t.Errorf("valid flow rejected: %v", err)
	}
	bad := []func(*Flow){
		func(f *Flow) { f.Name = "" },
		func(f *Flow) { f.FPS = 0 },
		func(f *Flow) { f.Stages = nil },
		func(f *Flow) { f.InBytes = 0 }, // VD is not a source
		func(f *Flow) { f.Stages[0].OutBytes = 0 },
	}
	for i, mut := range bad {
		f := videoFlow()
		mut(&f)
		if err := f.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSourceFlowNeedsNoInput(t *testing.T) {
	f := Flow{
		Name: "record", FPS: 60,
		Stages: []Stage{
			{Kind: ipcore.CAM, OutBytes: FrameCamera},
			{Kind: ipcore.VE, OutBytes: BitstreamCamera},
			{Kind: ipcore.MMC, OutBytes: 0},
		},
	}
	if err := f.Validate(); err != nil {
		t.Errorf("camera flow rejected: %v", err)
	}
}

func TestStageIn(t *testing.T) {
	f := videoFlow()
	if f.StageIn(0) != BitstreamVideo4K {
		t.Error("stage 0 input should be the bitstream")
	}
	if f.StageIn(1) != Frame4K {
		t.Error("stage 1 input should be the decoded frame")
	}
}

func TestChainAndPeriod(t *testing.T) {
	f := videoFlow()
	if p := f.Period(); p < 16*sim.Millisecond || p > 17*sim.Millisecond {
		t.Errorf("Period = %v", p)
	}
}

func TestFlowString(t *testing.T) {
	f := videoFlow()
	if got := f.FlowString(); got != "CPU - VD - DC" {
		t.Errorf("FlowString = %q", got)
	}
	cam := Flow{Name: "rec", FPS: 60, Stages: []Stage{{Kind: ipcore.CAM, OutBytes: 1}, {Kind: ipcore.VE, OutBytes: 0}}}
	if got := cam.FlowString(); got != "CAM - VE" {
		t.Errorf("FlowString = %q", got)
	}
}

func TestSpecValidate(t *testing.T) {
	s := Spec{ID: "A5", Name: "Video Player", Class: ClassPlayback, Flows: []Flow{videoFlow()}}
	if err := s.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	s2 := s
	s2.ID = ""
	if s2.Validate() == nil {
		t.Error("missing ID accepted")
	}
	s3 := s
	s3.Flows = nil
	if s3.Validate() == nil {
		t.Error("no flows accepted")
	}
	s4 := Spec{ID: "X", Name: "x", Flows: []Flow{func() Flow { f := videoFlow(); f.Display = false; return f }()}}
	if s4.Validate() == nil {
		t.Error("spec without display flow accepted")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassPlayback: "playback", ClassEncode: "encode", ClassGame: "game", ClassAudio: "audio",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
	if !strings.Contains(Class(42).String(), "?") {
		t.Error("unknown class should render with ?")
	}
}

func TestQoSOnTimeFrame(t *testing.T) {
	q := NewQoS(16667 * sim.Microsecond)
	q.Released()
	if !q.Completed(0, 0, 10*sim.Millisecond) {
		t.Error("on-time frame reported as violation")
	}
	if q.Violations() != 0 || q.ViolationRate() != 0 {
		t.Error("no violations expected")
	}
	if q.AvgFlowTime() != 10*sim.Millisecond {
		t.Errorf("AvgFlowTime = %v", q.AvgFlowTime())
	}
}

func TestQoSLateFrame(t *testing.T) {
	q := NewQoS(16 * sim.Millisecond)
	q.Released()
	if q.Completed(0, 0, 20*sim.Millisecond) {
		t.Error("late frame reported as on-time")
	}
	if q.Violations() != 1 {
		t.Errorf("Violations = %d", q.Violations())
	}
}

func TestQoSDrops(t *testing.T) {
	q := NewQoS(16 * sim.Millisecond)
	q.Released()
	q.Completed(0, 0, 5*sim.Millisecond)
	q.Dropped()
	q.Dropped()
	if q.Frames() != 3 {
		t.Errorf("Frames = %d, want 3", q.Frames())
	}
	if q.Violations() != 2 {
		t.Errorf("Violations = %d, want 2 (both drops)", q.Violations())
	}
	if got := q.ViolationRate(); got < 0.66 || got > 0.67 {
		t.Errorf("ViolationRate = %v, want 2/3", got)
	}
	if q.DroppedFrames() != 2 || q.CompletedFrames() != 1 {
		t.Error("drop/complete counts wrong")
	}
}

func TestQoSMaxAndAvgFlow(t *testing.T) {
	q := NewQoS(16 * sim.Millisecond)
	q.Released()
	q.Released()
	q.Completed(0, 0, 10*sim.Millisecond)
	q.Completed(10*sim.Millisecond, 10*sim.Millisecond, 40*sim.Millisecond)
	if q.MaxFlowTime() != 30*sim.Millisecond {
		t.Errorf("MaxFlowTime = %v", q.MaxFlowTime())
	}
	if q.AvgFlowTime() != 20*sim.Millisecond {
		t.Errorf("AvgFlowTime = %v", q.AvgFlowTime())
	}
}

func TestQoSAchievedFPS(t *testing.T) {
	q := NewQoS(16 * sim.Millisecond)
	for i := 0; i < 30; i++ {
		q.Released()
		q.Completed(0, 0, sim.Millisecond)
	}
	if got := q.AchievedFPS(sim.Second / 2); got != 60 {
		t.Errorf("AchievedFPS = %v, want 60", got)
	}
	if q.AchievedFPS(0) != 0 {
		t.Error("zero duration should report 0 FPS")
	}
}

func TestQoSEmpty(t *testing.T) {
	q := NewQoS(16 * sim.Millisecond)
	if q.ViolationRate() != 0 || q.AvgFlowTime() != 0 {
		t.Error("empty tracker should report zeros")
	}
}

func TestTapModelRespectsPaperShape(t *testing.T) {
	m := NewTapModel(42)
	const n = 20000
	over05, under015 := 0, 0
	for i := 0; i < n; i++ {
		g := m.NextGap()
		if g < 150*sim.Millisecond {
			under015++
		}
		if g > 500*sim.Millisecond {
			over05++
		}
	}
	if under015 != 0 {
		t.Errorf("%d taps under the 0.15s floor", under015)
	}
	frac := float64(over05) / n
	if frac < 0.55 || frac > 0.75 {
		t.Errorf("taps over 0.5s = %.2f, paper says >60%%", frac)
	}
}

func TestTapModelDeterministic(t *testing.T) {
	a, b := NewTapModel(7), NewTapModel(7)
	for i := 0; i < 50; i++ {
		if a.NextGap() != b.NextGap() {
			t.Fatal("same seed must give same taps")
		}
	}
}

func TestTapHistogram(t *testing.T) {
	m := NewTapModel(42)
	h := m.TapHistogram(10000, 1.25)
	var sum float64
	for _, v := range h {
		if v < 0 {
			t.Fatal("negative bin")
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("histogram sums to %v", sum)
	}
	if h[0] != 0 {
		t.Errorf("bin <0.15s should be empty, got %v", h[0])
	}
}

func TestFlickModelBurstability(t *testing.T) {
	m := NewFlickModel(42)
	burstable, total, sizes := m.BurstabilitySample(10*60*sim.Second, 60)
	if total == 0 {
		t.Fatal("no frames sampled")
	}
	frac := float64(burstable) / float64(total)
	// Figure 6a: ~60% of frames burstable.
	if frac < 0.45 || frac > 0.75 {
		t.Errorf("burstable fraction = %.2f, want ~0.6", frac)
	}
	if len(sizes) == 0 {
		t.Fatal("no bursts")
	}
	// Figure 6b: heavy tail — some gaps allow 27+ frame bursts.
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	if max < 27 {
		t.Errorf("max burst %d frames; Figure 6b shows bursts past 27", max)
	}
}

func TestFlickModelDeterministic(t *testing.T) {
	a, b := NewFlickModel(9), NewFlickModel(9)
	for i := 0; i < 20; i++ {
		f1, g1 := a.NextPhase()
		f2, g2 := b.NextPhase()
		if f1 != f2 || g1 != g2 {
			t.Fatal("same seed must give same phases")
		}
	}
}

func TestBurstabilityRespectsDuration(t *testing.T) {
	m := NewFlickModel(13)
	_, total, _ := m.BurstabilitySample(sim.Second, 60)
	if total > 61 {
		t.Errorf("1s at 60 FPS yielded %d frames", total)
	}
}
