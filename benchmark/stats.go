package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile. With fewer samples the percentile is lowered until it
// holds, so a tail read off a small sample is never a single outlier.
const tailBeyond = 10

// summary reduces a timing sample to what the benchmark reports: the
// median, the quartiles, the tail and the sample count.
type summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	Q1  float64 `json:"q1"`
	Q3  float64 `json:"q3"`
	// Tail is the value at percentile TailP: the highest percentile, at
	// most 90, that leaves at least tailBeyond samples above it. Both are
	// 0 when the sample has too few values for any tail.
	Tail  float64 `json:"tail"`
	TailP float64 `json:"tail_p"`
}

// summarize computes the summary of xs; xs is not modified.
func summarize(xs []float64) summary {
	s := sorted(xs)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = quantile(s, 0.5)
	out.Q1 = quantile(s, 0.25)
	out.Q3 = quantile(s, 0.75)
	out.Tail, out.TailP = tail(s, 0.90)
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the exclusive-method quantile of an ascending sample, the
// definition Python's statistics.quantiles uses by default (including
// its linear extrapolation beyond the outermost samples), so the
// quartiles printed here match the ones a reader computes from the raw
// runs.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	h := float64(n+1) * p
	j := min(max(int(math.Floor(h)), 1), n-1) // 1-based rank at or below h
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tail returns the value at the highest percentile no greater than want
// that leaves at least tailBeyond samples above it, and that percentile.
// It returns zeros when the sample holds tailBeyond values or fewer.
func tail(s []float64, want float64) (float64, float64) {
	n := len(s)
	k := int(math.Ceil(want * float64(n))) // 1-based rank of the nominal percentile
	if k > n-tailBeyond {
		k = n - tailBeyond
	}
	if k < 1 {
		return 0, 0
	}
	return s[k-1], float64(k) / float64(n)
}

// slope fits y = a + b·x by least squares and returns b (0 for fewer than
// two distinct x values).
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
