// Package maporder is the analyzer fixture: order-sensitive effects
// inside map iteration, and the sorted-keys idiom that replaces them.
package maporder

import (
	"fmt"
	"io"
	"sort"

	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/internal/telemetry"
)

// schedules: engine state advances in map order.
func schedules(eng *sim.Engine, m map[string]sim.Time) {
	for _, t := range m { // want `calls sim\.At \(engine/RNG state advances\)`
		eng.At(t, func() {})
	}
}

// constructs: component constructors fork streams and register state.
func constructs(m map[string]uint64) map[string]*sim.RNG {
	out := make(map[string]*sim.RNG, len(m))
	for name, seed := range m { // want `constructs components via NewRNG`
		out[name] = sim.NewRNG(seed)
	}
	return out
}

// emits: trace records appear in map order.
func emits(rec *telemetry.Recorder, m map[string]sim.Time) {
	for name, at := range m { // want `emits trace events via Recorder\.PhaseMark`
		rec.PhaseMark("track", name, at)
	}
}

// emitsSpans: the span log's emitters count too.
func emitsSpans(rec *telemetry.Recorder, m map[string]int) {
	for track, frame := range m { // want `emits trace events via Recorder\.FrameSubmit`
		rec.FrameSubmit(track, frame, 0)
	}
}

// records: metric observations in map order.
func records(d *metrics.Distribution, m map[string]float64) {
	for _, v := range m { // want `records metrics via Distribution\.Observe`
		d.Observe(v)
	}
}

// writes: output rows in map order.
func writes(w io.Writer, m map[string]int) {
	for k, v := range m { // want `writes output via fmt\.Fprintf`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// appends: a slice consumed later inherits map order.
func appends(m map[string]int) []string {
	var keys []string
	for k := range m { // want `appends to "keys" in random key order`
		keys = append(keys, k)
	}
	return keys
}

// sortedKeys is the blessed idiom: the append-collect loop is exempt
// because the slice is sorted before anything consumes it.
func sortedKeys(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

// commutative accumulation without calls or appends is exempt.
func accumulates(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// localAppend is exempt: the slice lives inside the loop body, so no
// cross-key ordering escapes.
func localAppend(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// allowed shows the escape hatch for a consciously order-insensitive
// effect.
func allowed(d *metrics.Distribution, m map[string]float64) {
	//viplint:allow maporder -- the summary is order-free over this fixed set
	for _, v := range m {
		d.Observe(v)
	}
}
