package vip

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"github.com/vipsim/vip/internal/core"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/workload"
)

// CanonicalVersion names the canonical Scenario encoding. It is the
// first line of every Canonical() payload, so hashes from different
// encoding revisions can never collide. Bump it whenever the encoding
// changes (a field added, a default changed, a normalization rule
// altered) and update the golden hash in canonical_test.go in the same
// commit.
const CanonicalVersion = "vip.Scenario/v1"

// EngineVersion re-exports the simulation-model revision used for
// content-addressed result reuse: cached reports are keyed by
// (Scenario.Hash, EngineVersion), so results computed by an older model
// are never served for a newer one.
const EngineVersion = sim.EngineVersion

// Canonical returns the canonical encoding of the scenario: a versioned,
// deterministic byte string in which semantically identical scenarios
// are identical bytes, regardless of how they were spelled. The encoding
//
//   - fills every defaulted knob with the value Simulate lowers it to,
//     read from core.DefaultOptions and platform.DefaultConfig (Duration
//     0 encodes as 500 ms, Seed 0 as 1, BurstSize 0 as 5,
//     LaneBufferBytes 0 as 2048), so an explicit default and an omitted
//     one collapse to the same bytes;
//   - expands Table 2 workload ids into their Table 1 app mixes (the
//     simulator sees exactly the expansion, so {"W1"} and {"A5","A5"}
//     are the same run);
//   - lowers a Faults block to the fault mix the simulator runs (the
//     derived fault seed and every model's parameters, scaled from the
//     base rate), and omits it entirely when nil;
//   - excludes host-side observers (ChromeTrace, OnMetricsSnapshot),
//     which never influence simulated results.
//
// Fields appear one per line in a fixed order, so the encoding is also
// a readable debugging artifact. Canonical fails on scenarios that
// Simulate would reject (unknown system, unknown app id, negative
// knobs); only valid scenarios have a canonical form.
func (sc Scenario) Canonical() ([]byte, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	apps, err := workload.Expand(sc.Apps)
	if err != nil {
		return nil, err
	}
	if len(apps) == 0 {
		return nil, fmt.Errorf("vip: no applications to canonicalize")
	}

	opts := core.DefaultOptions(sc.System)
	dur := sc.Duration
	if dur == 0 {
		dur = opts.Duration
	}
	seed := sc.Seed
	if seed == 0 {
		seed = opts.Seed
	}
	burst := sc.BurstSize
	if burst == 0 {
		burst = opts.BurstSize
	}
	laneBuf := sc.LaneBufferBytes
	if laneBuf == 0 {
		laneBuf = platform.DefaultConfig(sc.System).LaneBufBytes
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", CanonicalVersion)
	fmt.Fprintf(&b, "system=%d\n", int(sc.System))
	fmt.Fprintf(&b, "apps=%s\n", strings.Join(apps, ","))
	fmt.Fprintf(&b, "duration_ns=%d\n", int64(dur))
	fmt.Fprintf(&b, "burst=%d\n", burst)
	fmt.Fprintf(&b, "seed=%d\n", seed)
	fmt.Fprintf(&b, "ideal_memory=%t\n", sc.IdealMemory)
	fmt.Fprintf(&b, "lane_buffer_bytes=%d\n", laneBuf)
	fmt.Fprintf(&b, "metrics_interval_ns=%d\n", int64(sc.MetricsInterval))
	if f := sc.Faults; f != nil {
		cfg := f.config(seed)
		fmt.Fprintf(&b, "faults.seed=%d\n", cfg.Seed)
		fmt.Fprintf(&b, "faults.lane_hang_rate=%s\n", canonFloat(cfg.LaneHangRate))
		fmt.Fprintf(&b, "faults.lane_hang_mean_ns=%d\n", int64(cfg.LaneHangMean))
		fmt.Fprintf(&b, "faults.permanent_rate=%s\n", canonFloat(cfg.PermanentRate))
		fmt.Fprintf(&b, "faults.slowdown_rate=%s\n", canonFloat(cfg.SlowdownRate))
		fmt.Fprintf(&b, "faults.slowdown_factor=%s\n", canonFloat(cfg.SlowdownFactor))
		fmt.Fprintf(&b, "faults.dram_error_rate=%s\n", canonFloat(cfg.DRAMErrorRate))
		fmt.Fprintf(&b, "faults.ecc_retry_latency_ns=%d\n", int64(cfg.ECCRetryLatency))
		fmt.Fprintf(&b, "faults.noc_drop_rate=%s\n", canonFloat(cfg.NoCDropRate))
		fmt.Fprintf(&b, "faults.lost_interrupt_rate=%s\n", canonFloat(cfg.LostInterruptRate))
		fmt.Fprintf(&b, "faults.credit_loss_rate=%s\n", canonFloat(cfg.CreditLossRate))
		fmt.Fprintf(&b, "faults.disable_recovery=%t\n", f.DisableRecovery)
	}
	return []byte(b.String()), nil
}

// Hash returns the scenario's content hash: the hex SHA-256 of its
// canonical encoding. Two scenarios hash identically exactly when they
// describe the same simulation; any semantic change — a different app
// mix, seed, duration, fault knob — flips the hash. The hash is stable
// across processes and platforms and is the cache key (together with
// EngineVersion) of the vipserve result cache.
func (sc Scenario) Hash() (string, error) {
	c, err := sc.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// canonFloat renders a float in the shortest round-trippable form, so
// the encoding never depends on printf rounding.
func canonFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
