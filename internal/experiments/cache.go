package experiments

// Result reuse: the experiment runner keeps its results in the same
// content-addressed cache that vipserve uses, so ablation grids (figure
// sweeps, buffer-sizing studies, fault matrices) skip cells an earlier
// run already simulated. A cell's key is its experiments.Config/v2
// encoding, not vipserve's vip.Scenario/v1 one, so a vipserve pointed at
// the same directory neither reuses nor collides with these entries.
// Reuse is sound for the same reason vipserve's replay is: every run is
// seed-deterministic, reports round-trip through JSON (the host-profile
// fields excluded from JSON are exactly the ones no table or figure
// writer reads), and keys carry the engine version, so a model revision
// can never serve its predecessor's numbers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/vipsim/vip/internal/cache"
	"github.com/vipsim/vip/internal/core"
	"github.com/vipsim/vip/internal/sim"
)

// configCanonicalVersion names the Config canonical encoding; bump it
// whenever a field is added or a default changes so stale hashes can
// never alias a new meaning.
const configCanonicalVersion = "experiments.Config/v2"

// resultCache, when non-nil, is consulted by Run. Set once via SetCache
// before launching runs (an atomic pointer, so RunAll's workers read it
// race-free).
var resultCache atomic.Pointer[cache.Cache]

// SetCache installs (or, with nil, removes) the result cache consulted
// by Run and RunAll. Install it before launching runs; the cache itself
// is safe for the parallel executor's workers.
func SetCache(c *cache.Cache) {
	resultCache.Store(c)
}

// canonical renders the *defaulted* config as a versioned line-based
// byte string, the experiment-side analogue of vip.Scenario.Canonical.
// The caller passes the withDefaults form so an explicit default and an
// omitted one collapse to the same bytes.
func (c Config) canonical() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", configCanonicalVersion)
	fmt.Fprintf(&b, "mode=%d\n", int(c.Mode))
	fmt.Fprintf(&b, "apps=%s\n", strings.Join(c.AppIDs, ","))
	fmt.Fprintf(&b, "duration_ns=%d\n", int64(c.Duration))
	fmt.Fprintf(&b, "fps_override=%s\n", strconv.FormatFloat(c.FPSOverride, 'g', -1, 64))
	fmt.Fprintf(&b, "ideal_memory=%t\n", c.IdealMemory)
	fmt.Fprintf(&b, "lane_buffer_bytes=%d\n", c.LaneBufBytes)
	if c.FaultRate > 0 {
		fmt.Fprintf(&b, "fault_rate=%s\n", strconv.FormatFloat(c.FaultRate, 'g', -1, 64))
		fmt.Fprintf(&b, "recovery=%t\n", c.Recovery)
	}
	return b.Bytes()
}

// cacheKey is the content address of a defaulted config's report.
func cacheKey(c Config) string {
	return cache.Key(cache.HashBytes(c.canonical()), sim.EngineVersion)
}

// cachedRun wraps the real runner with the result cache: decode a hit,
// or run and store. A corrupt cached entry (e.g. a truncated disk file)
// falls through to a fresh run rather than failing the experiment.
func cachedRun(cfg Config, run func(Config) (*core.Report, error)) (*core.Report, error) {
	c := resultCache.Load()
	if c == nil {
		return run(cfg)
	}
	key := cacheKey(cfg)
	if raw, ok := c.Get(key); ok {
		rep := new(core.Report)
		if err := json.Unmarshal(raw, rep); err == nil {
			return rep, nil
		}
	}
	rep, err := run(cfg)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		// The report is fine; only its cache copy failed. Skip storing.
		return rep, nil
	}
	_ = c.Put(key, raw) // a failed disk copy only costs a re-run later
	return rep, nil
}
