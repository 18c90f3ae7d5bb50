// Package metrics is the simulator's observability layer: a registry of
// named gauges and distributions that component models register at
// construction, a periodic sampler driven by the simulation engine that
// turns gauges into time series, and exporters for JSON/CSV time-series
// dumps, Prometheus text snapshots, and a live HTTP endpoint. A count is
// a gauge over the state that keeps it, so every count is kept once.
//
// Like telemetry.Recorder, the whole layer is nil-safe and zero-cost when
// disabled: a nil *Registry hands out nil *Distribution values whose
// methods are no-ops, and no sampler events enter the engine's queue.
// Everything recorded is a pure function of simulated time, so two runs
// with the same seed export byte-identical time series.
package metrics

import (
	"sort"

	"github.com/vipsim/vip/internal/stats"
)

// GaugeFunc is a callback polled by the sampler. It must be a
// deterministic function of simulation state: the sampler calls every
// gauge exactly once per tick, in sorted name order.
type GaugeFunc func() float64

// Distribution accumulates observations (e.g. per-frame flow times) and
// summarises them as count/mean/percentiles in reports. Methods on a nil
// Distribution are no-ops.
type Distribution struct {
	s stats.Sample
}

// Observe records one observation.
func (d *Distribution) Observe(v float64) {
	if d == nil {
		return
	}
	d.s.Add(v)
}

// Summary reports the distribution's headline statistics.
func (d *Distribution) Summary() DistSummary {
	if d == nil {
		return DistSummary{}
	}
	return DistSummary{
		Count: d.s.N(),
		Mean:  d.s.Mean(),
		P50:   d.s.P50(),
		P95:   d.s.P95(),
		P99:   d.s.P99(),
		Max:   d.s.Max(),
	}
}

// DistSummary is the exported snapshot of one Distribution.
type DistSummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

type gauge struct {
	name string
	fn   GaugeFunc
}

// Registry holds every metric of one platform instance. A nil *Registry
// is a valid, permanently-disabled registry; every accessor returns nil
// or zero values and registration is a no-op, so components wire metrics
// unconditionally.
type Registry struct {
	dists  map[string]*Distribution
	gauges []gauge
	sorted bool
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{dists: make(map[string]*Distribution)}
}

// Enabled reports whether metrics are being collected.
func (r *Registry) Enabled() bool { return r != nil }

// Distribution returns the named distribution, creating it on first use.
func (r *Registry) Distribution(name string) *Distribution {
	if r == nil {
		return nil
	}
	d, ok := r.dists[name]
	if !ok {
		d = &Distribution{}
		r.dists[name] = d
	}
	return d
}

// Gauge registers a polled gauge. Re-registering a name replaces the
// previous callback (last writer wins, which lets tests stub gauges).
func (r *Registry) Gauge(name string, fn GaugeFunc) {
	if r == nil || fn == nil {
		return
	}
	for i := range r.gauges {
		if r.gauges[i].name == name {
			r.gauges[i].fn = fn
			return
		}
	}
	r.gauges = append(r.gauges, gauge{name: name, fn: fn})
	r.sorted = false
}

// sortedGauges returns the gauges in name order; the order is what makes
// sampling (and stateful delta gauges) deterministic.
func (r *Registry) sortedGauges() []gauge {
	if !r.sorted {
		sort.Slice(r.gauges, func(i, j int) bool { return r.gauges[i].name < r.gauges[j].name })
		r.sorted = true
	}
	return r.gauges
}

// GaugeNames lists the registered gauge names in sorted order.
func (r *Registry) GaugeNames() []string {
	if r == nil {
		return nil
	}
	gs := r.sortedGauges()
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.name
	}
	return out
}

// Distributions returns every distribution's summary keyed by name.
func (r *Registry) Distributions() map[string]DistSummary {
	if r == nil {
		return nil
	}
	out := make(map[string]DistSummary, len(r.dists))
	for n, d := range r.dists {
		out[n] = d.Summary()
	}
	return out
}
