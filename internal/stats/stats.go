// Package stats provides the small statistics toolkit the experiment
// harness uses: streaming moments, exact percentiles over bounded sample
// sets, and Jain's fairness index. QoS argumentation lives in the tail
// of the latency distribution (a 99th-percentile frame is a visible
// stutter), so reports carry p95/p99 flow times alongside means.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations and answers moment and percentile
// queries. The zero value is ready to use. Observations are retained so
// percentiles are exact.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.xs = append(s.xs, v)
	s.sorted = false
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Sum reports the total of all observations.
func (s *Sample) Sum() float64 {
	var t float64
	for _, v := range s.xs {
		t += v
	}
	return t
}

// Mean reports the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.xs))
}

// Var reports the population variance (0 when empty).
func (s *Sample) Var() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.xs {
		d := v - m
		acc += d * d
	}
	return acc / float64(n)
}

// StdDev reports the population standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Var()) }

// Min reports the smallest observation (0 when empty).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max reports the largest observation (0 when empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile reports the p-th percentile (p in [0,100]) using the
// nearest-rank method; 0 when empty. Out-of-range p is clamped.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	s.ensureSorted()
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s.xs[rank-1]
}

// P50, P95 and P99 are the percentiles QoS reporting uses.
func (s *Sample) P50() float64 { return s.Percentile(50) }

// P95 reports the 95th percentile.
func (s *Sample) P95() float64 { return s.Percentile(95) }

// P99 reports the 99th percentile.
func (s *Sample) P99() float64 { return s.Percentile(99) }

// String renders a compact summary.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		s.N(), s.Mean(), s.P50(), s.P95(), s.P99(), s.Max())
}

// JainIndex computes Jain's fairness index over per-flow allocations:
// (sum x)^2 / (n * sum x^2). It is 1.0 when every flow gets the same
// share and approaches 1/n when one flow takes everything. Empty or
// all-zero inputs report 1 (trivially fair).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
