package telemetry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should read zero")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be zero")
	}
	if h.String() != "hist{empty}" {
		t.Fatalf("String: %q", h.String())
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Fatalf("count=%d", h.Count())
	}
	if h.Min() != time.Millisecond || h.Max() != 3*time.Millisecond {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
	if mean := h.Mean(); mean < 1900*time.Microsecond || mean > 2100*time.Microsecond {
		t.Fatalf("mean=%v", mean)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	// Uniform 1..1000 ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 500 * time.Millisecond},
		{0.9, 900 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	} {
		got := h.Quantile(tc.q)
		rel := math.Abs(float64(got-tc.want)) / float64(tc.want)
		if rel > 0.05 {
			t.Errorf("q=%v: got %v want ≈%v (rel err %.3f)", tc.q, got, tc.want, rel)
		}
	}
	if h.Quantile(0) != time.Millisecond {
		t.Fatalf("q0 = %v", h.Quantile(0))
	}
	if h.Quantile(1) != time.Second {
		t.Fatalf("q1 = %v", h.Quantile(1))
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatal("negative observation should clamp to 0")
	}
}

func TestHistogramExtremeValues(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Nanosecond) // below floor
	h.Observe(100 * time.Hour) // beyond top decade
	if h.Count() != 2 {
		t.Fatal("observations lost")
	}
	if h.Quantile(1) != 100*time.Hour {
		t.Fatal("max not exact")
	}
}

func TestHistogramFractionBelow(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Millisecond)
	}
	if f := h.FractionBelow(50 * time.Millisecond); math.Abs(f-0.5) > 0.02 {
		t.Fatalf("FractionBelow(50ms) = %v", f)
	}
	if f := h.FractionBelow(time.Second); f != 1.0 {
		t.Fatalf("FractionBelow(1s) = %v", f)
	}
	if f := h.FractionBelow(time.Microsecond); f != 0 {
		t.Fatalf("FractionBelow(1µs) = %v", f)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Observe(time.Millisecond)
	b.Observe(3 * time.Millisecond)
	a.Merge(b)
	a.Merge(nil)
	a.Merge(NewHistogram())
	if a.Count() != 2 || a.Min() != time.Millisecond || a.Max() != 3*time.Millisecond {
		t.Fatalf("merge wrong: %v", a)
	}
}

func TestHistogramCDFDefaults(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	points := h.CDF()
	if len(points) != len(StandardPercentiles) {
		t.Fatalf("points=%d", len(points))
	}
	if FormatCDF(points) == "" {
		t.Fatal("empty FormatCDF")
	}
}

// Property: quantiles are monotone non-decreasing in q and bounded by
// [min, max].
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Observe(time.Duration(v%10_000_000) * time.Microsecond)
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			if v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: counts are conserved through merge.
func TestHistogramMergeConservesCountProperty(t *testing.T) {
	f := func(a, b []uint16) bool {
		ha, hb := NewHistogram(), NewHistogram()
		for _, v := range a {
			ha.Observe(time.Duration(v) * time.Microsecond)
		}
		for _, v := range b {
			hb.Observe(time.Duration(v) * time.Microsecond)
		}
		ha.Merge(hb)
		return ha.Count() == uint64(len(a)+len(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A sample bucketed once and observed is the same observation as its
// duration observed: same count, sum, extremes, buckets and quantiles,
// over repeats (Observe's memo), the clamp, the floor and the top.
func TestObserveSampleMatchesObserve(t *testing.T) {
	stream := rand.New(rand.NewSource(7))
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 5000; i++ {
		d := time.Duration(stream.ExpFloat64() * float64(20*time.Millisecond))
		switch i % 50 {
		case 0:
			d = -d
		case 1:
			d = 37
		case 2:
			d = 100 * time.Hour
		case 3, 4:
			d = 5 * time.Millisecond
		}
		a.Observe(d)
		b.ObserveSample(NewSample(d))
	}
	if a.count != b.count || a.sum != b.sum || a.min != b.min || a.max != b.max {
		t.Fatalf("Observe: n=%d sum=%v [%v, %v]; ObserveSample: n=%d sum=%v [%v, %v]",
			a.count, a.sum, a.min, a.max, b.count, b.sum, b.min, b.max)
	}
	for i := range a.buckets {
		if a.buckets[i] != b.buckets[i] {
			t.Fatalf("bucket %d: Observe %d, ObserveSample %d", i, a.buckets[i], b.buckets[i])
		}
	}
	for q := 0.0; q <= 1; q += 0.001 {
		if qa, qb := a.Quantile(q), b.Quantile(q); qa != qb {
			t.Fatalf("q=%v: Observe %v, ObserveSample %v", q, qa, qb)
		}
	}
}

func TestPercentileMatchesQuantile(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Percentile(99) != h.Quantile(0.99) {
		t.Fatal("Percentile/Quantile mismatch")
	}
}
