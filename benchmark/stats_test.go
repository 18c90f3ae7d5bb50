package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// is how the spread of repeated runs is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1, 2, 9, 4}, 1.5, 3.5, 6.5},
		{[]float64{5, 7}, 4.5, 6, 7.5},
	} {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.P50, c.q2) || !near(s.Q3, c.q3) || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1=%v p50=%v q3=%v n=%d", c.xs, s, c.q1, c.q2, c.q3, len(c.xs))
		}
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

// The tail is p90 only when at least ten samples lie beyond it; smaller
// samples get a lower percentile, and ten or fewer get none.
func TestTailLeavesTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n           int
		tail, tailP float64
	}{
		{200, 180, 0.90}, // 20 beyond
		{100, 90, 0.90},  // exactly 10 beyond
		{50, 40, 0.80},   // lowered so that 10 stay beyond
		{11, 1, 1.0 / 11},
		{10, 0, 0},
	} {
		s := summarize(ramp(c.n))
		if !near(s.Tail, c.tail) || !near(s.TailP, c.tailP) || s.N != c.n {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", c.n, s.Tail, s.TailP, c.tail, c.tailP)
		}
		beyond := 0
		for _, x := range ramp(c.n) {
			if x > s.Tail {
				beyond++
			}
		}
		if s.TailP > 0 && beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

func TestSlope(t *testing.T) {
	if got := slope([]float64{0, 1, 2, 3}, []float64{1, 3, 5, 7}); !near(got, 2) {
		t.Errorf("slope = %v, want 2", got)
	}
	if got := slope([]float64{1, 1}, []float64{0, 5}); got != 0 {
		t.Errorf("slope over one x = %v, want 0", got)
	}
}
