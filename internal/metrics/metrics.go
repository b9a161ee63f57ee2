// Package metrics provides the lightweight measurement primitives used by the
// live overlay, the experiment harness and the simulator: summary
// statistics, integer histograms (for the workload key-frequency plots of
// Figure 3), HDR-style latency histograms and the Prometheus registry.
package metrics

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample set.
type Summary struct {
	Count int
	Min   float64
	Max   float64
	Mean  float64
	P50   float64
	P95   float64
	P99   float64
}

// Summarize computes a Summary of the values (zero Summary when empty).
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		Mean:  sum / float64(len(sorted)),
		P50:   percentile(sorted, 0.50),
		P95:   percentile(sorted, 0.95),
		P99:   percentile(sorted, 0.99),
	}
}

// percentile returns the p-quantile of an ascending-sorted slice using the
// nearest-rank method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// IntHistogram counts occurrences per integer bucket (e.g. key frequency per
// 8-bit base value in Figure 3).
type IntHistogram struct {
	Name    string
	buckets []int64
}

// NewIntHistogram creates a histogram with the given number of buckets.
func NewIntHistogram(name string, buckets int) *IntHistogram {
	if buckets < 1 {
		buckets = 1
	}
	return &IntHistogram{Name: name, buckets: make([]int64, buckets)}
}

// Add increments bucket i (out-of-range adds are clamped to the edges).
func (h *IntHistogram) Add(i int) {
	if i < 0 {
		i = 0
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
}

// Buckets returns a copy of the bucket counts.
func (h *IntHistogram) Buckets() []int64 {
	out := make([]int64, len(h.buckets))
	copy(out, h.buckets)
	return out
}

// Total returns the total number of samples recorded.
func (h *IntHistogram) Total() int64 {
	var sum int64
	for _, c := range h.buckets {
		sum += c
	}
	return sum
}

// MaxBucket returns the index and count of the fullest bucket.
func (h *IntHistogram) MaxBucket() (int, int64) {
	bestI, bestC := 0, int64(0)
	for i, c := range h.buckets {
		if c > bestC {
			bestI, bestC = i, c
		}
	}
	return bestI, bestC
}

// SkewRatio returns max bucket count divided by the mean bucket count — a
// simple measure of how skewed the distribution is (1.0 means perfectly
// uniform).
func (h *IntHistogram) SkewRatio() float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(h.buckets))
	_, maxC := h.MaxBucket()
	return float64(maxC) / mean
}
