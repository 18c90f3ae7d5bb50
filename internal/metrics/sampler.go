package metrics

import (
	"fmt"

	"github.com/vipsim/vip/internal/sim"
)

// TimeSeries is the exported form of a sampled run: one shared time axis
// plus one value column per metric. encoding/json marshals the Series map
// with sorted keys, so a given run always serializes byte-identically.
type TimeSeries struct {
	// IntervalNS is the sampling period in simulated nanoseconds.
	IntervalNS int64 `json:"interval_ns"`
	// TimesNS are the sample instants in simulated nanoseconds.
	TimesNS []int64 `json:"times_ns"`
	// Series maps gauge name to its polled value at every sample
	// instant.
	Series map[string][]float64 `json:"series"`
}

// Len reports the number of samples taken.
func (ts *TimeSeries) Len() int {
	if ts == nil {
		return 0
	}
	return len(ts.TimesNS)
}

// Names lists the sampled metric names in sorted (export) order.
func (ts *TimeSeries) Names() []string {
	if ts == nil {
		return nil
	}
	return sortedKeys(ts.Series)
}

// Sampler snapshots a registry into per-metric time series at a fixed
// simulated interval. It drives itself with self-rescheduling engine
// events, exactly like the component models, so sampling is part of the
// deterministic event order.
type Sampler struct {
	reg      *Registry
	eng      *sim.Engine
	interval sim.Time

	ts TimeSeries

	// OnSample, when non-nil, runs after every tick with the sampler —
	// the live /metrics endpoint publishes from it.
	OnSample func(*Sampler)
}

// StartSampler begins periodic sampling on eng every interval, up to and
// including horizon. It returns nil (a valid, inert sampler) when the
// registry is disabled or the interval is not positive; it panics on a
// negative horizon.
func StartSampler(eng *sim.Engine, reg *Registry, interval, horizon sim.Time) *Sampler {
	if reg == nil || interval <= 0 {
		return nil
	}
	if horizon < 0 {
		panic(fmt.Sprintf("metrics: negative sampling horizon %v", horizon))
	}
	s := &Sampler{reg: reg, eng: eng, interval: interval}
	s.ts.IntervalNS = int64(interval)
	s.ts.Series = make(map[string][]float64)
	var tick func()
	tick = func() {
		s.sample()
		if s.eng.Now()+interval <= horizon {
			s.eng.After(interval, tick)
		}
	}
	eng.After(interval, tick)
	return s
}

// sample takes one snapshot: every gauge is polled once, in sorted
// order.
func (s *Sampler) sample() {
	s.ts.TimesNS = append(s.ts.TimesNS, int64(s.eng.Now()))
	for _, g := range s.reg.sortedGauges() {
		s.ts.Series[g.name] = append(s.ts.Series[g.name], g.fn())
	}
	// Metrics registered after the first tick would leave earlier rows
	// ragged; a short column is missing its oldest samples, so pad zeros
	// at the front to keep every column aligned with the time axis.
	n := len(s.ts.TimesNS)
	for name, col := range s.ts.Series {
		if miss := n - len(col); miss > 0 {
			padded := make([]float64, n)
			copy(padded[miss:], col)
			s.ts.Series[name] = padded
		}
	}
	if s.OnSample != nil {
		s.OnSample(s)
	}
}

// Samples reports the number of ticks taken (0 on a nil sampler).
func (s *Sampler) Samples() int {
	if s == nil {
		return 0
	}
	return s.ts.Len()
}

// Interval reports the sampling period (0 on a nil sampler).
func (s *Sampler) Interval() sim.Time {
	if s == nil {
		return 0
	}
	return s.interval
}

// TimeSeries returns the accumulated series. The result shares backing
// arrays with the sampler; treat it as read-only (or call it after the
// run, as the runner does). A nil sampler yields nil.
func (s *Sampler) TimeSeries() *TimeSeries {
	if s == nil {
		return nil
	}
	return &s.ts
}

// Latest returns the most recent value of every sampled metric, keyed by
// name; nil before the first tick or on a nil sampler.
func (s *Sampler) Latest() map[string]float64 {
	if s == nil || len(s.ts.TimesNS) == 0 {
		return nil
	}
	out := make(map[string]float64, len(s.ts.Series))
	for name, col := range s.ts.Series {
		out[name] = col[len(col)-1]
	}
	return out
}
