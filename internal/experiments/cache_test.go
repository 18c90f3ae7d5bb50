package experiments

import (
	"encoding/json"
	"testing"

	"github.com/vipsim/vip/internal/cache"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
)

// TestRunReusesCachedResult: with a cache installed, re-running the same
// config decodes the stored report instead of simulating, and the decoded
// report carries the same numbers (on every JSON-visible field).
func TestRunReusesCachedResult(t *testing.T) {
	c := cache.New(16, "")
	SetCache(c)
	t.Cleanup(func() { SetCache(nil) })

	cfg := Config{
		Mode:     platform.VIP,
		AppIDs:   []string{"A5"},
		Duration: 10 * sim.Millisecond,
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Puts != 1 || s.Hits != 0 {
		t.Fatalf("after first run: %+v, want 1 put / 0 hits", s)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 {
		t.Fatalf("after second run: %+v, want 1 hit", s)
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if string(j1) != string(j2) {
		t.Error("cached report differs from the original")
	}
	if r2.DisplayedFrames != r1.DisplayedFrames || r2.TotalEnergyJ != r1.TotalEnergyJ {
		t.Errorf("cached headline numbers differ: %d/%g vs %d/%g",
			r2.DisplayedFrames, r2.TotalEnergyJ, r1.DisplayedFrames, r1.TotalEnergyJ)
	}
}

// TestConfigCanonicalSeparates: different defaulted configs get
// different cache keys; a spelled-out default shares the omitted form's
// key.
func TestConfigCanonicalSeparates(t *testing.T) {
	base := Config{Mode: platform.VIP, AppIDs: []string{"A5"}}.withDefaults()
	spelled := Config{
		Mode:     platform.VIP,
		AppIDs:   []string{"A5"},
		Duration: 400 * sim.Millisecond, // the runner default
	}.withDefaults()
	if cacheKey(base) != cacheKey(spelled) {
		t.Error("explicit defaults changed the cache key")
	}
	for name, mut := range map[string]Config{
		"mode":     {Mode: platform.Baseline, AppIDs: []string{"A5"}},
		"apps":     {Mode: platform.VIP, AppIDs: []string{"A5", "A5"}},
		"duration": {Mode: platform.VIP, AppIDs: []string{"A5"}, Duration: 100 * sim.Millisecond},
		"faults":   {Mode: platform.VIP, AppIDs: []string{"A5"}, FaultRate: 1e-4},
		"fps":      {Mode: platform.VIP, AppIDs: []string{"A5"}, FPSOverride: 60},
		"lanebuf":  {Mode: platform.VIP, AppIDs: []string{"A5"}, LaneBufBytes: 4096},
	} {
		if cacheKey(mut.withDefaults()) == cacheKey(base) {
			t.Errorf("%s change did not change the cache key", name)
		}
	}
}
