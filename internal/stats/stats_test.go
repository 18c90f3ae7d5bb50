package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 || s.Min() != 0 ||
		s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample should answer zeros")
	}
}

func TestSampleMoments(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 || s.Sum() != 40 {
		t.Errorf("n=%d sum=%v", s.N(), s.Sum())
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.StdDev() != 2 {
		t.Errorf("stddev = %v, want 2", s.StdDev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.P50(); got != 50 {
		t.Errorf("p50 = %v", got)
	}
	if got := s.P95(); got != 95 {
		t.Errorf("p95 = %v", got)
	}
	if got := s.P99(); got != 99 {
		t.Errorf("p99 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want first value", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	// Clamped out-of-range.
	if s.Percentile(-5) != 1 || s.Percentile(500) != 100 {
		t.Error("out-of-range percentiles should clamp")
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Max()
	s.Add(20)
	if s.Max() != 20 {
		t.Error("adding after a query must re-sort")
	}
}

func TestSampleString(t *testing.T) {
	var s Sample
	s.Add(1)
	if !strings.Contains(s.String(), "n=1") {
		t.Errorf("String = %q", s.String())
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, aRaw, bRaw uint8) bool {
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		pa, pb := s.Percentile(a), s.Percentile(b)
		return pa <= pb && pa >= s.Min() && pb <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-9 && m <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if JainIndex(nil) != 1 {
		t.Error("empty input should be trivially fair")
	}
	if JainIndex([]float64{0, 0}) != 1 {
		t.Error("all-zero input should be trivially fair")
	}
	if got := JainIndex([]float64{5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares = %v, want 1", got)
	}
	// One flow takes everything among n=4: index -> 1/4.
	if got := JainIndex([]float64{10, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("starved flows = %v, want 0.25", got)
	}
	// Unequal but nonzero lands strictly between.
	got := JainIndex([]float64{1, 3})
	if got <= 0.5 || got >= 1 {
		t.Errorf("JainIndex(1,3) = %v, want in (0.5, 1)", got)
	}
}

// Property: Jain index is scale-invariant and within [1/n, 1].
func TestJainIndexProperty(t *testing.T) {
	f := func(raw []uint16, scaleRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		nonzero := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			return JainIndex(xs) == 1
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		if j < 1/n-1e-9 || j > 1+1e-9 {
			return false
		}
		scale := float64(scaleRaw)/16 + 0.5
		ys := make([]float64, len(xs))
		for i := range xs {
			ys[i] = xs[i] * scale
		}
		return math.Abs(JainIndex(ys)-j) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
