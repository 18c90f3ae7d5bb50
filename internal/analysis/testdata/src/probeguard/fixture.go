// Package probeguard is the analyzer fixture: late metric registration,
// plus the blessed conventions.
package probeguard

import "github.com/vipsim/vip/internal/metrics"

type config struct {
	Metrics *metrics.Registry
}

type component struct {
	cfg    config
	frames *metrics.Distribution
}

// New registers at construction: the blessed place.
func New(cfg config) *component {
	c := &component{cfg: cfg}
	c.registerMetrics()
	return c
}

// registerMetrics is reachable from New, so registration here is fine.
func (c *component) registerMetrics() {
	reg := c.cfg.Metrics
	c.frames = reg.Distribution("fixture.frames")
	reg.Gauge("fixture.depth", func() float64 { return 0 })
}

// nilSafeProbes: distribution methods are nil-safe by design.
func (c *component) nilSafeProbes() {
	c.frames.Observe(1)
}

// lateRegistration mutates the registry mid-run.
func (c *component) lateRegistration() {
	c.frames = c.cfg.Metrics.Distribution("fixture.late")            // want `metrics registration via Registry\.Distribution in lateRegistration`
	c.cfg.Metrics.Gauge("fixture.late", func() float64 { return 1 }) // want `metrics registration via Registry\.Gauge in lateRegistration`
}

// deferredRegistration hides registration in a closure that runs later.
func NewDeferred(cfg config) func() {
	return func() {
		cfg.Metrics.Gauge("fixture.deferred", func() float64 { return 1 }) // want `metrics registration via Registry\.Gauge inside a function literal`
	}
}

// allowed shows the escape hatch.
func (c *component) allowed() {
	_ = c.cfg.Metrics.Distribution("fixture.allowed") //viplint:allow probeguard -- test-only registration fixture
}
