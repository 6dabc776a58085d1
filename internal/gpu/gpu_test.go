package gpu

import (
	"testing"
	"time"

	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

func newTestDevice(noise Noise) (*simclock.Engine, *Device) {
	eng := simclock.NewEngine()
	return eng, NewDevice(eng, rng.NewStream(1), noise)
}

func TestSerialExecNoNoiseIsExact(t *testing.T) {
	eng, d := newTestDevice(NoNoise)
	var got time.Duration
	var at simclock.Time
	d.ExecRun(2900*time.Microsecond, ExecFunc(func(actual time.Duration) {
		got = actual
		at = eng.Now()
	}))
	if !d.Busy() {
		t.Fatal("device should be busy")
	}
	eng.Run()
	if got != 2900*time.Microsecond {
		t.Fatalf("actual = %v", got)
	}
	if at != simclock.Time(2900*time.Microsecond) {
		t.Fatalf("completed at %v", at)
	}
	if d.Busy() {
		t.Fatal("device should be idle after completion")
	}
	if d.ExecCount() != 1 {
		t.Fatalf("exec count = %d", d.ExecCount())
	}
}

func TestSerialExecOverlapPanics(t *testing.T) {
	_, d := newTestDevice(NoNoise)
	d.ExecRun(time.Millisecond, ExecFunc(func(time.Duration) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overlapping Exec")
		}
	}()
	d.ExecRun(time.Millisecond, ExecFunc(func(time.Duration) {}))
}

func TestSerialExecBadDurationPanics(t *testing.T) {
	_, d := newTestDevice(NoNoise)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.ExecRun(0, ExecFunc(func(time.Duration) {}))
}

func TestSerialExecNoiseIsTiny(t *testing.T) {
	eng, d := newTestDevice(DefaultNoise)
	base := 2897 * time.Microsecond
	var durations []time.Duration
	var run func()
	run = func() {
		d.ExecRun(base, ExecFunc(func(actual time.Duration) {
			durations = append(durations, actual)
			if len(durations) < 20000 {
				run()
			}
		}))
	}
	run()
	eng.Run()

	var max time.Duration
	for _, v := range durations {
		if v < base {
			t.Fatalf("noise made execution faster than base: %v < %v", v, base)
		}
		if v > max {
			max = v
		}
	}
	// p100 over 20k draws should stay within ~1.1% of base
	// (spikes are capped at +1%).
	if float64(max) > float64(base)*1.011 {
		t.Fatalf("max %v exceeds +1.1%% envelope of %v", max, base)
	}
}

func TestInjectDisturbanceDelaysNextExec(t *testing.T) {
	eng, d := newTestDevice(NoNoise)
	d.InjectDisturbance(5 * time.Millisecond)
	d.InjectDisturbance(-time.Second) // ignored
	var got time.Duration
	d.ExecRun(time.Millisecond, ExecFunc(func(actual time.Duration) { got = actual }))
	eng.Run()
	if got != 6*time.Millisecond {
		t.Fatalf("actual = %v, want 6ms", got)
	}
	// Disturbance is one-shot.
	d.ExecRun(time.Millisecond, ExecFunc(func(actual time.Duration) { got = actual }))
	eng.Run()
	if got != time.Millisecond {
		t.Fatalf("second exec = %v, want 1ms", got)
	}
}

func TestDeviceOnBusyReportsSpans(t *testing.T) {
	eng, d := newTestDevice(NoNoise)
	var spans []time.Duration
	d.OnBusy = func(from, to simclock.Time) { spans = append(spans, to.Sub(from)) }
	d.ExecRun(time.Millisecond, ExecFunc(func(time.Duration) {}))
	eng.Run()
	if len(spans) != 1 || spans[0] != time.Millisecond {
		t.Fatalf("spans = %v", spans)
	}
}

func TestConcurrentThroughputGain(t *testing.T) {
	// Closed-loop load at concurrency 16 vs 1: Fig 2b shows up to ~25%
	// more throughput for concurrent execution.
	throughput := func(conc int) float64 {
		eng, d := newTestDevice(NoNoise)
		base := 2900 * time.Microsecond
		completed := 0
		horizon := simclock.Time(30 * time.Second)
		var submit func()
		submit = func() {
			d.Submit(base, func(time.Duration) {
				completed++
				if eng.Now() < horizon {
					submit()
				}
			})
		}
		for i := 0; i < conc; i++ {
			submit()
		}
		eng.RunUntil(horizon)
		return float64(completed) / 30.0
	}
	t1 := throughput(1)
	t16 := throughput(16)
	gain := t16/t1 - 1
	if gain < 0.10 || gain > 0.35 {
		t.Fatalf("concurrency-16 throughput gain = %.1f%%, want ≈25%%", gain*100)
	}
}

func TestConcurrentLatencyVariability(t *testing.T) {
	// Fig 2b: at concurrency 16, latency becomes wildly variable —
	// orders of magnitude above the serial latency.
	eng, d := newTestDevice(NoNoise)
	base := 2900 * time.Microsecond
	var latencies []time.Duration
	horizon := simclock.Time(30 * time.Second)
	var submit func()
	submit = func() {
		d.Submit(base, func(actual time.Duration) {
			latencies = append(latencies, actual)
			if eng.Now() < horizon {
				submit()
			}
		})
	}
	for i := 0; i < 16; i++ {
		submit()
	}
	eng.RunUntil(horizon)

	var max, sum time.Duration
	for _, l := range latencies {
		sum += l
		if l > max {
			max = l
		}
	}
	mean := sum / time.Duration(len(latencies))
	if mean < 10*base {
		t.Fatalf("mean concurrent latency %v should be ≫ serial %v", mean, base)
	}
	if max < 15*base {
		t.Fatalf("max concurrent latency %v should be ≫ serial %v", max, base)
	}
	// Fig 2b's claim is about *variability*: serial spread is sub-µs
	// (Fig 2a), concurrent spread is tens of ms — far beyond 100×.
	if spread := max - base; spread < 100*100*time.Microsecond {
		t.Fatalf("latency spread %v should exceed 100× the serial spread", spread)
	}
}

func TestConcurrentDeviceDrains(t *testing.T) {
	eng, d := newTestDevice(NoNoise)
	done := 0
	for i := 0; i < 5; i++ {
		d.Submit(time.Millisecond, func(time.Duration) { done++ })
	}
	if d.ActiveKernels() != 5 {
		t.Fatalf("active = %d", d.ActiveKernels())
	}
	eng.Run()
	if done != 5 || d.ActiveKernels() != 0 {
		t.Fatalf("done=%d active=%d", done, d.ActiveKernels())
	}
}

func TestSubmitBadDurationPanics(t *testing.T) {
	_, d := newTestDevice(NoNoise)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Submit(-time.Second, func(time.Duration) {})
}

func TestSpeedupShape(t *testing.T) {
	if speedup(1) != 1.0 {
		t.Fatal("speedup(1) must be 1")
	}
	if speedup(16) != 1.25 {
		t.Fatalf("speedup(16) = %v, want 1.25", speedup(16))
	}
	if speedup(100) != 1.25 {
		t.Fatal("speedup must cap at 16")
	}
	prev := 0.0
	for k := 1; k <= 16; k++ {
		s := speedup(k)
		if s < prev {
			t.Fatal("speedup must be monotone")
		}
		prev = s
	}
}

func TestNoiseSampleAlwaysAtLeastOne(t *testing.T) {
	s := rng.NewStream(3)
	n := Noise{Sigma: 0.01, SpikeProb: 0.1, SpikeMax: 0.5}
	for i := 0; i < 10000; i++ {
		if f := n.Sample(s); f < 1.0 {
			t.Fatalf("noise factor %v < 1", f)
		}
	}
}

func TestNoNoiseIsIdentity(t *testing.T) {
	s := rng.NewStream(3)
	if NoNoise.Apply(time.Second, s) != time.Second {
		t.Fatal("NoNoise must not change durations")
	}
}
