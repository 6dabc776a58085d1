package gpu

import (
	"math"
	"testing"
	"time"

	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

// transferFunc adapts a closure to TransferRunner.
type transferFunc func(start, end simclock.Time, actual time.Duration)

func (f transferFunc) TransferDone(start, end simclock.Time, actual time.Duration) {
	f(start, end, actual)
}

func newTestLink() (*simclock.Engine, *Link) {
	eng := simclock.NewEngine()
	return eng, NewLink(eng, rng.NewStream(1), NoNoise)
}

func TestLinkTransferCompletes(t *testing.T) {
	eng, l := newTestLink()
	var gotStart, gotEnd simclock.Time
	l.TransferRun(8330*time.Microsecond, transferFunc(func(start, end simclock.Time, actual time.Duration) {
		gotStart, gotEnd = start, end
		if actual != 8330*time.Microsecond {
			t.Fatalf("actual = %v", actual)
		}
	}))
	eng.Run()
	if gotStart != 0 || gotEnd != simclock.Time(8330*time.Microsecond) {
		t.Fatalf("span = [%v, %v]", gotStart, gotEnd)
	}
}

func TestLinkIsFIFO(t *testing.T) {
	eng, l := newTestLink()
	var order []int
	l.TransferRun(10*time.Millisecond, transferFunc(func(_, _ simclock.Time, _ time.Duration) { order = append(order, 1) }))
	l.TransferRun(time.Millisecond, transferFunc(func(_, _ simclock.Time, _ time.Duration) { order = append(order, 2) }))
	eng.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	// The second transfer queued behind the first.
	if eng.Now() != simclock.Time(11*time.Millisecond) {
		t.Fatalf("drained at %v, want 11ms", eng.Now())
	}
}

func TestLinkQueueDelay(t *testing.T) {
	eng, l := newTestLink()
	if l.QueueDelay() != 0 {
		t.Fatal("idle link should have zero queue delay")
	}
	l.TransferRun(5*time.Millisecond, transferFunc(func(_, _ simclock.Time, _ time.Duration) {}))
	if l.QueueDelay() != 5*time.Millisecond {
		t.Fatalf("queue delay = %v", l.QueueDelay())
	}
	eng.Run()
	if l.QueueDelay() != 0 {
		t.Fatal("drained link should have zero queue delay")
	}
	if l.Count() != 1 {
		t.Fatalf("count = %d", l.Count())
	}
}

func TestDurationForBytesCalibration(t *testing.T) {
	_, l := newTestLink()
	// A ResNet50-sized blob (102.1 MB) should take ≈8.3ms at the
	// calibrated bandwidth.
	mb := 102.1
	bytes := int64(mb * 1024 * 1024)
	got := l.DurationForBytes(bytes).Seconds() * 1000
	if math.Abs(got-8.3) > 0.35 {
		t.Fatalf("102.1MB transfer priced at %.2fms, want ≈8.3ms", got)
	}
	// A 602kB input should be "10s of microseconds".
	in := l.DurationForBytes(602 * 1024)
	if in < 10*time.Microsecond || in > 200*time.Microsecond {
		t.Fatalf("input transfer = %v, want 10s of µs", in)
	}
}

func TestDurationForBytesNegativePanics(t *testing.T) {
	_, l := newTestLink()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.DurationForBytes(-1)
}

func TestTransferBadDurationPanics(t *testing.T) {
	_, l := newTestLink()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.TransferRun(0, transferFunc(func(_, _ simclock.Time, _ time.Duration) {}))
}

func TestTransferBytes(t *testing.T) {
	eng, l := newTestLink()
	fired := false
	l.TransferBytesRun(1024*1024, transferFunc(func(start, end simclock.Time, actual time.Duration) {
		fired = true
		if actual <= 0 {
			t.Fatal("non-positive actual")
		}
	}))
	eng.Run()
	if !fired {
		t.Fatal("callback not fired")
	}
}

func TestLinkOnBusy(t *testing.T) {
	eng, l := newTestLink()
	var total time.Duration
	l.OnBusy = func(from, to simclock.Time) { total += to.Sub(from) }
	l.TransferRun(3*time.Millisecond, transferFunc(func(_, _ simclock.Time, _ time.Duration) {}))
	l.TransferRun(2*time.Millisecond, transferFunc(func(_, _ simclock.Time, _ time.Duration) {}))
	eng.Run()
	if total != 5*time.Millisecond {
		t.Fatalf("busy total = %v", total)
	}
}
