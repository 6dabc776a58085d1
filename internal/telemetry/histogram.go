package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Histogram accumulates durations in logarithmically spaced buckets
// covering 100ns .. ~1000s with 100 buckets per decade (≈2.3% relative
// resolution), which is ample for reproducing the paper's tail plots.
type Histogram struct {
	count   uint64
	sum     float64 // nanoseconds (converted to seconds at the Sum accessor)
	min     time.Duration
	max     time.Duration
	buckets []uint64
	// Memo of the last bucketed value: simulator durations are heavily
	// quantized (constant network hops, table-driven exec times), so
	// consecutive observations repeat and the log10 can be skipped.
	// The zero value is valid: bucketIndex(0) == 0.
	lastD   time.Duration
	lastIdx int
}

const (
	histMinNanos     = 100.0 // 100ns floor
	bucketsPerDecade = 100
	histDecades      = 11 // 100ns → 10^13 ns ≈ 2.8h
	histBuckets      = bucketsPerDecade*histDecades + 1
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64, buckets: make([]uint64, histBuckets)}
}

func bucketIndex(d time.Duration) int {
	ns := float64(d)
	if ns < histMinNanos {
		return 0
	}
	idx := int(math.Log10(ns/histMinNanos) * bucketsPerDecade)
	if idx < 0 {
		idx = 0
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

func bucketLower(idx int) time.Duration {
	return time.Duration(histMinNanos * math.Pow(10, float64(idx)/bucketsPerDecade))
}

// Sample is a duration with its bucket worked out, for a value observed
// into several histograms: the logarithm is taken once, in NewSample.
type Sample struct {
	d   time.Duration
	idx int
}

// NewSample clamps d as Observe does and buckets it.
func NewSample(d time.Duration) Sample {
	d = max(d, 0)
	return Sample{d, bucketIndex(d)}
}

// Observe records one duration. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	d = max(d, 0)
	if d != h.lastD {
		h.lastD = d
		h.lastIdx = bucketIndex(d)
	}
	h.ObserveSample(Sample{d, h.lastIdx})
}

// ObserveSample records s: the same as Observe with the duration s was
// made from.
func (h *Histogram) ObserveSample(s Sample) {
	h.count++
	h.sum += float64(s.d)
	h.min = min(h.min, s.d)
	h.max = max(h.max, s.d)
	h.buckets[s.idx]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all observations in seconds — the value a
// Prometheus histogram's _sum series exports.
func (h *Histogram) Sum() float64 { return h.sum / float64(time.Second) }

// Mean returns the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.count))
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the value at quantile q in [0,1]. The answer is exact
// at q=0 and q=1 and otherwise accurate to the bucket resolution
// (≈2.3% relative error). Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			// Geometric interpolation within the bucket.
			lo := float64(bucketLower(i))
			hi := float64(bucketLower(i + 1))
			frac := (target - cum) / float64(c)
			v := time.Duration(lo * math.Pow(hi/lo, frac))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum = next
	}
	return h.max
}

// Percentile is Quantile with q expressed in percent (e.g. 99.99).
func (h *Histogram) Percentile(p float64) time.Duration {
	return h.Quantile(p / 100)
}

// FractionBelow returns the fraction of observations ≤ d.
func (h *Histogram) FractionBelow(d time.Duration) float64 {
	if h.count == 0 {
		return 0
	}
	idx := bucketIndex(d)
	var cum uint64
	for i := 0; i < idx; i++ {
		cum += h.buckets[i]
	}
	// Assume uniform occupancy within the boundary bucket.
	lo, hi := bucketLower(idx), bucketLower(idx+1)
	frac := 1.0
	if hi > lo {
		frac = float64(d-lo) / float64(hi-lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
	}
	cum += uint64(frac * float64(h.buckets[idx]))
	return float64(cum) / float64(h.count)
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
}

// CDFPoint is one (latency, percentile) pair for plotting.
type CDFPoint struct {
	Percentile float64
	Value      time.Duration
}

// StandardPercentiles are the tail percentiles the paper plots.
var StandardPercentiles = []float64{0, 50, 90, 99, 99.9, 99.99, 99.999, 99.9999, 100}

// CDF evaluates the histogram at the given percentiles (defaulting to
// StandardPercentiles when ps is empty).
func (h *Histogram) CDF(ps ...float64) []CDFPoint {
	if len(ps) == 0 {
		ps = StandardPercentiles
	}
	out := make([]CDFPoint, 0, len(ps))
	for _, p := range ps {
		out = append(out, CDFPoint{Percentile: p, Value: h.Percentile(p)})
	}
	return out
}

// String renders a compact summary.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "hist{empty}"
	}
	return fmt.Sprintf("hist{n=%d p50=%v p99=%v p99.99=%v max=%v}",
		h.count, h.Percentile(50), h.Percentile(99), h.Percentile(99.99), h.max)
}

// FormatCDF renders percentile→value rows as an aligned table.
func FormatCDF(points []CDFPoint) string {
	var b strings.Builder
	for _, p := range points {
		fmt.Fprintf(&b, "%9.4f%%  %v\n", p.Percentile, p.Value)
	}
	return b.String()
}

// SortDurations is a small helper for tests and exact-quantile checks.
func SortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
