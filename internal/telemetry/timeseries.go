package telemetry

import (
	"fmt"
	"time"

	"clockwork/internal/simclock"
)

// TimeSeries accumulates (sum, count) per fixed-width interval of virtual
// time. It backs the paper's per-minute plots: goodput, throughput, mean
// batch size, cold-start counts.
type TimeSeries struct {
	interval time.Duration
	sums     []float64
	counts   []uint64
}

// NewTimeSeries returns a series with the given bucket width.
func NewTimeSeries(interval time.Duration) *TimeSeries {
	if interval <= 0 {
		panic("telemetry: non-positive interval")
	}
	return &TimeSeries{interval: interval}
}

// Interval returns the bucket width.
func (ts *TimeSeries) Interval() time.Duration { return ts.interval }

func (ts *TimeSeries) grow(idx int) {
	for len(ts.sums) <= idx {
		ts.sums = append(ts.sums, 0)
		ts.counts = append(ts.counts, 0)
	}
}

func (ts *TimeSeries) index(t simclock.Time) int {
	if t < 0 {
		return 0
	}
	return int(int64(t) / int64(ts.interval))
}

// Add records value v at instant t.
func (ts *TimeSeries) Add(t simclock.Time, v float64) {
	idx := ts.index(t)
	ts.grow(idx)
	ts.sums[idx] += v
	ts.counts[idx]++
}

// Incr records an occurrence (value 1) at instant t.
func (ts *TimeSeries) Incr(t simclock.Time) { ts.Add(t, 1) }

// Buckets returns the number of buckets touched so far.
func (ts *TimeSeries) Buckets() int { return len(ts.sums) }

// Sum returns the accumulated value of bucket i (0 beyond the end).
func (ts *TimeSeries) Sum(i int) float64 {
	if i < 0 || i >= len(ts.sums) {
		return 0
	}
	return ts.sums[i]
}

// Count returns the number of samples in bucket i.
func (ts *TimeSeries) Count(i int) uint64 {
	if i < 0 || i >= len(ts.counts) {
		return 0
	}
	return ts.counts[i]
}

// Mean returns the mean sample value of bucket i, or 0 if empty.
func (ts *TimeSeries) Mean(i int) float64 {
	if i < 0 || i >= len(ts.sums) || ts.counts[i] == 0 {
		return 0
	}
	return ts.sums[i] / float64(ts.counts[i])
}

// Rate returns bucket i's sum divided by the bucket width in seconds —
// e.g. requests/second when each Add contributes 1.
func (ts *TimeSeries) Rate(i int) float64 {
	return ts.Sum(i) / ts.interval.Seconds()
}

// TotalSum returns the sum over all buckets.
func (ts *TimeSeries) TotalSum() float64 {
	var s float64
	for _, v := range ts.sums {
		s += v
	}
	return s
}

// TotalCount returns the count over all buckets.
func (ts *TimeSeries) TotalCount() uint64 {
	var c uint64
	for _, v := range ts.counts {
		c += v
	}
	return c
}

// BucketStart returns the start instant of bucket i.
func (ts *TimeSeries) BucketStart(i int) simclock.Time {
	return simclock.Time(int64(i) * int64(ts.interval))
}

// String summarises the series.
func (ts *TimeSeries) String() string {
	return fmt.Sprintf("timeseries{interval=%v buckets=%d total=%.1f}",
		ts.interval, len(ts.sums), ts.TotalSum())
}

// Utilization integrates busy time per interval, producing the paper's
// GPU-utilisation and PCIe-utilisation curves. Busy spans may overlap
// bucket boundaries; they are split proportionally.
type Utilization struct {
	interval time.Duration
	busy     []time.Duration
}

// NewUtilization returns a utilisation integrator with the given bucket
// width.
func NewUtilization(interval time.Duration) *Utilization {
	if interval <= 0 {
		panic("telemetry: non-positive interval")
	}
	return &Utilization{interval: interval}
}

// AddBusy records that the tracked resource was busy during [from, to).
// Inverted spans are ignored.
func (u *Utilization) AddBusy(from, to simclock.Time) {
	if to <= from {
		return
	}
	if from < 0 {
		from = 0
	}
	iv := int64(u.interval)
	for from < to {
		idx := int(int64(from) / iv)
		bucketEnd := simclock.Time((int64(idx) + 1) * iv)
		end := simclock.Min(to, bucketEnd)
		for len(u.busy) <= idx {
			u.busy = append(u.busy, 0)
		}
		u.busy[idx] += end.Sub(from)
		from = end
	}
}

// Buckets returns the number of buckets touched.
func (u *Utilization) Buckets() int { return len(u.busy) }

// Fraction returns bucket i's busy fraction in [0,1].
func (u *Utilization) Fraction(i int) float64 {
	if i < 0 || i >= len(u.busy) {
		return 0
	}
	f := float64(u.busy[i]) / float64(u.interval)
	if f > 1 {
		f = 1
	}
	return f
}

// BusyIn returns the integrated busy time within bucket i. Unlike
// Fraction it does not clamp, so multiple overlapping resources (e.g. 12
// GPUs feeding one aggregate) can be normalised by the caller.
func (u *Utilization) BusyIn(i int) time.Duration {
	if i < 0 || i >= len(u.busy) {
		return 0
	}
	return u.busy[i]
}

// TotalBusy returns the integrated busy time.
func (u *Utilization) TotalBusy() time.Duration {
	var t time.Duration
	for _, b := range u.busy {
		t += b
	}
	return t
}
