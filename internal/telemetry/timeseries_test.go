package telemetry

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"clockwork/internal/simclock"
)

func TestTimeSeriesBasics(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Add(simclock.Time(0), 2)
	ts.Add(simclock.Time(500*time.Millisecond), 3)
	ts.Incr(simclock.Time(1500 * time.Millisecond))
	if ts.Buckets() != 2 {
		t.Fatalf("buckets=%d", ts.Buckets())
	}
	if ts.Sum(0) != 5 || ts.Count(0) != 2 {
		t.Fatalf("bucket0: sum=%v count=%v", ts.Sum(0), ts.Count(0))
	}
	if ts.Mean(0) != 2.5 {
		t.Fatalf("mean=%v", ts.Mean(0))
	}
	if ts.Rate(0) != 5 {
		t.Fatalf("rate=%v", ts.Rate(0))
	}
	if ts.Sum(1) != 1 {
		t.Fatalf("bucket1 sum=%v", ts.Sum(1))
	}
	if ts.TotalSum() != 6 || ts.TotalCount() != 3 {
		t.Fatal("totals wrong")
	}
	if ts.BucketStart(1) != simclock.Time(time.Second) {
		t.Fatal("BucketStart wrong")
	}
	if ts.Interval() != time.Second {
		t.Fatal("Interval wrong")
	}
	if ts.String() == "" {
		t.Fatal("String empty")
	}
}

func TestTimeSeriesOutOfRangeReads(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	if ts.Sum(-1) != 0 || ts.Sum(5) != 0 || ts.Count(9) != 0 || ts.Mean(3) != 0 || ts.Rate(7) != 0 {
		t.Fatal("out-of-range reads should be zero")
	}
}

func TestTimeSeriesNegativeTimeClamps(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Add(simclock.Time(-5), 1)
	if ts.Sum(0) != 1 {
		t.Fatal("negative time should land in bucket 0")
	}
}

func TestTimeSeriesPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTimeSeries(0)
}

func TestUtilizationSingleBucket(t *testing.T) {
	u := NewUtilization(time.Second)
	u.AddBusy(simclock.Time(100*time.Millisecond), simclock.Time(600*time.Millisecond))
	if f := u.Fraction(0); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("fraction=%v", f)
	}
}

func TestUtilizationSpansBuckets(t *testing.T) {
	u := NewUtilization(time.Second)
	u.AddBusy(simclock.Time(500*time.Millisecond), simclock.Time(2500*time.Millisecond))
	if f := u.Fraction(0); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("bucket0=%v", f)
	}
	if f := u.Fraction(1); math.Abs(f-1.0) > 1e-9 {
		t.Fatalf("bucket1=%v", f)
	}
	if f := u.Fraction(2); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("bucket2=%v", f)
	}
	if u.TotalBusy() != 2*time.Second {
		t.Fatalf("TotalBusy=%v", u.TotalBusy())
	}
}

func TestUtilizationIgnoresInvertedAndEmptySpans(t *testing.T) {
	u := NewUtilization(time.Second)
	u.AddBusy(simclock.Time(5), simclock.Time(5))
	u.AddBusy(simclock.Time(10), simclock.Time(5))
	if u.Buckets() != 0 {
		t.Fatal("inverted spans should be ignored")
	}
}

func TestUtilizationNegativeStartClamped(t *testing.T) {
	u := NewUtilization(time.Second)
	u.AddBusy(simclock.Time(-int64(time.Second)), simclock.Time(time.Second/2))
	if f := u.Fraction(0); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("fraction=%v", f)
	}
}

func TestUtilizationFractionCapped(t *testing.T) {
	u := NewUtilization(time.Second)
	// Two overlapping busy claims (e.g. two executors) can exceed 1;
	// Fraction clamps for plotting.
	u.AddBusy(simclock.Time(0), simclock.Time(time.Second))
	u.AddBusy(simclock.Time(0), simclock.Time(time.Second))
	if f := u.Fraction(0); f != 1.0 {
		t.Fatalf("fraction=%v", f)
	}
}

func TestUtilizationPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUtilization(-time.Second)
}

// Property: total busy time is conserved regardless of how a span crosses
// bucket boundaries.
func TestUtilizationConservationProperty(t *testing.T) {
	f := func(startMs uint16, durMs uint16) bool {
		u := NewUtilization(time.Second)
		from := simclock.Time(time.Duration(startMs) * time.Millisecond)
		to := from.Add(time.Duration(durMs) * time.Millisecond)
		u.AddBusy(from, to)
		return u.TotalBusy() == to.Sub(from) || (durMs == 0 && u.TotalBusy() == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortDurations(t *testing.T) {
	ds := []time.Duration{3, 1, 2}
	SortDurations(ds)
	if ds[0] != 1 || ds[1] != 2 || ds[2] != 3 {
		t.Fatalf("sorted: %v", ds)
	}
}
