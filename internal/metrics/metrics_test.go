package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	if got := Summarize(nil); got.Count != 0 {
		t.Errorf("Summarize(nil) = %+v", got)
	}
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i + 1) // 1..100
	}
	s := Summarize(values)
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Errorf("mean = %g, want 50.5", s.Mean)
	}
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 {
		t.Errorf("percentiles = %g %g %g", s.P50, s.P95, s.P99)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	values := []float64{3, 1, 2}
	Summarize(values)
	if values[0] != 3 || values[1] != 1 || values[2] != 2 {
		t.Errorf("input mutated: %v", values)
	}
}

func TestIntHistogram(t *testing.T) {
	h := NewIntHistogram("keys", 4)
	for i := 0; i < 10; i++ {
		h.Add(1)
	}
	h.Add(3)
	h.Add(-5) // clamped to 0
	h.Add(99) // clamped to 3
	if got := h.Total(); got != 13 {
		t.Errorf("Total = %d, want 13", got)
	}
	b := h.Buckets()
	if b[0] != 1 || b[1] != 10 || b[2] != 0 || b[3] != 2 {
		t.Errorf("Buckets = %v", b)
	}
	i, c := h.MaxBucket()
	if i != 1 || c != 10 {
		t.Errorf("MaxBucket = %d,%d", i, c)
	}
	// mean bucket = 13/4 = 3.25; skew = 10/3.25
	if got := h.SkewRatio(); math.Abs(got-10/3.25) > 1e-9 {
		t.Errorf("SkewRatio = %g", got)
	}
	if NewIntHistogram("tiny", 0) == nil {
		t.Error("zero-bucket histogram should be coerced, not nil")
	}
	empty := NewIntHistogram("e", 3)
	if empty.SkewRatio() != 0 {
		t.Error("empty histogram skew should be 0")
	}
}

func TestPropertySummaryBounds(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes bounded so the mean cannot overflow or lose the
			// ordering property to floating-point rounding.
			vals = append(vals, math.Mod(v, 1e6))
		}
		s := Summarize(vals)
		if len(vals) == 0 {
			return s.Count == 0
		}
		return s.Min <= s.Mean && s.Mean <= s.Max && s.Min <= s.P50 && s.P50 <= s.Max &&
			s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
