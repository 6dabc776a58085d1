package autoscale

import (
	"testing"
	"time"
)

func sig(completed, viol, shed uint64, p99, slo time.Duration, window int) Signals {
	return Signals{Completed: completed, Violations: viol, Shed: shed, P99: p99, SLO: slo, Window: window}
}

func TestWindowShrinksImmediatelyOnViolations(t *testing.T) {
	c := New(Config{MinWindow: 4, MaxWindow: 256})
	d := c.Evaluate(sig(1000, 100, 0, 90*time.Millisecond, 100*time.Millisecond, 128))
	if d.Window != 64 {
		t.Fatalf("want multiplicative shrink 128→64, got %d (%s)", d.Window, d.Reason)
	}
	// A second hot period keeps halving, down to the floor.
	for i := 0; i < 10; i++ {
		d = c.Evaluate(sig(1000, 100, 0, 90*time.Millisecond, 100*time.Millisecond, d.Window))
	}
	if d.Window != 4 {
		t.Fatalf("window must clamp at MinWindow=4, got %d", d.Window)
	}
}

func TestShedWithHeadroomReopensWindow(t *testing.T) {
	c := New(Config{MinWindow: 4, MaxWindow: 256})
	// 10% of arrivals shed at the door while the admitted work runs
	// with deep p99 headroom: the window is the bottleneck, and after
	// the growth hysteresis (default GrowSustain 2) it must reopen
	// multiplicatively, not creep additively.
	pinched := sig(900, 0, 100, 20*time.Millisecond, 100*time.Millisecond, 64)
	if d := c.Evaluate(pinched); d.Window != 64 {
		t.Fatalf("first shed period must hold (hysteresis), got %d", d.Window)
	}
	if d := c.Evaluate(pinched); d.Window != 128 {
		t.Fatalf("sustained sheds with headroom must double 64→128, got %d (%s)", d.Window, d.Reason)
	}
}

func TestShedWithoutHeadroomDoesNotGrow(t *testing.T) {
	c := New(Config{MinWindow: 4, MaxWindow: 256, GrowSustain: 1})
	// Sheds while the admitted work sits at 90% of SLO: capacity is
	// the bottleneck, growing the window would only add violations.
	hot := sig(900, 0, 100, 90*time.Millisecond, 100*time.Millisecond, 64)
	for i := 0; i < 5; i++ {
		if d := c.Evaluate(hot); d.Window > 64 {
			t.Fatalf("sheds without p99 headroom must not grow the window, got %d", d.Window)
		}
	}
}

func TestWindowGrowsOnlyAfterSustainedHeadroom(t *testing.T) {
	c := New(Config{MinWindow: 4, MaxWindow: 256, GrowSustain: 2, GrowStep: 8})
	quiet := sig(1000, 0, 0, 20*time.Millisecond, 100*time.Millisecond, 64)
	if d := c.Evaluate(quiet); d.Window != 64 {
		t.Fatalf("first quiet period must hold (hysteresis), got %d", d.Window)
	}
	if d := c.Evaluate(quiet); d.Window != 72 {
		t.Fatalf("second quiet period must grow 64→72, got %d", d.Window)
	}
}

func TestNoGrowthWithoutP99Headroom(t *testing.T) {
	c := New(Config{MinWindow: 4, MaxWindow: 256, GrowSustain: 1})
	// Quiet on violations but p99 at 90% of SLO: saturated, not idle.
	hot := sig(1000, 0, 0, 90*time.Millisecond, 100*time.Millisecond, 64)
	for i := 0; i < 5; i++ {
		if d := c.Evaluate(hot); d.Window != 64 {
			t.Fatalf("no growth without p99 headroom, got %d", d.Window)
		}
	}
}

func TestHotPeriodResetsGrowthStreak(t *testing.T) {
	c := New(Config{MinWindow: 4, MaxWindow: 256, GrowSustain: 2, GrowStep: 8, HighViolation: 0.05})
	quiet := sig(1000, 0, 0, 20*time.Millisecond, 100*time.Millisecond, 64)
	c.Evaluate(quiet)
	// Mid-watermark period (neither high nor low): streak resets.
	c.Evaluate(sig(1000, 20, 0, 50*time.Millisecond, 100*time.Millisecond, 64))
	if d := c.Evaluate(quiet); d.Window != 64 {
		t.Fatalf("growth streak must reset after a non-quiet period, got %d", d.Window)
	}
}

func TestWorkerScalingSustainAndCooldown(t *testing.T) {
	cfg := Config{
		MinWindow: 4, MaxWindow: 256,
		MinWorkers: 2, MaxWorkers: 8,
		WorkerSustain: 2, Cooldown: 2, Period: time.Second,
	}
	c := New(cfg)
	hot := Signals{
		Completed: 100, P99: 90 * time.Millisecond, SLO: 100 * time.Millisecond,
		Demand: 3200 * time.Millisecond, SchedulableGPUs: 4, // 80% of one period
		ActiveWorkers: 4, Window: 64,
	}
	if d := c.Evaluate(hot); d.AddWorkers != 0 {
		t.Fatalf("first hot period must not add (sustain=2): %+v", d)
	}
	d := c.Evaluate(hot)
	if d.AddWorkers != 1 {
		t.Fatalf("second hot period must add one worker: %+v", d)
	}
	// Cooldown: the next two hot periods must not act.
	for i := 0; i < 2; i++ {
		if d := c.Evaluate(hot); d.AddWorkers != 0 || d.DrainWorker {
			t.Fatalf("cooldown period %d must hold: %+v", i, d)
		}
	}
}

func TestWorkerDrainOnSustainedIdle(t *testing.T) {
	c := New(Config{
		MinWindow: 4, MaxWindow: 256,
		MinWorkers: 2, MaxWorkers: 8,
		WorkerSustain: 2, Period: time.Second,
	})
	idle := Signals{
		Completed: 100, P99: 10 * time.Millisecond, SLO: 100 * time.Millisecond,
		Demand: 100 * time.Millisecond, SchedulableGPUs: 8, // ~1% of capacity
		ActiveWorkers: 4, Window: 64,
	}
	c.Evaluate(idle)
	d := c.Evaluate(idle)
	if !d.DrainWorker {
		t.Fatalf("sustained idle must drain one worker: %+v", d)
	}
	// At the floor, never drain below MinWorkers.
	c2 := New(Config{MinWorkers: 2, MaxWorkers: 8, WorkerSustain: 1, Period: time.Second})
	atFloor := idle
	atFloor.ActiveWorkers = 2
	for i := 0; i < 3; i++ {
		if d := c2.Evaluate(atFloor); d.DrainWorker {
			t.Fatalf("must not drain below MinWorkers: %+v", d)
		}
	}
}

func TestNoWorkerScalingWhenDisabled(t *testing.T) {
	// MaxWorkers unset: window loop only.
	c := New(Config{MinWindow: 4, MaxWindow: 256})
	hot := Signals{
		Completed: 100, Demand: time.Hour, SchedulableGPUs: 1,
		ActiveWorkers: 1, Window: 64,
	}
	for i := 0; i < 5; i++ {
		if d := c.Evaluate(hot); d.AddWorkers != 0 || d.DrainWorker {
			t.Fatalf("worker scaling disabled, got %+v", d)
		}
	}
}

func TestIdleAllShedPeriodNeverGrows(t *testing.T) {
	c := New(Config{MinWindow: 4, MaxWindow: 256, GrowSustain: 1})
	// Everything shed, nothing completed: with no admitted work there
	// is no p99 evidence either way, so the degenerate period must
	// hold the window — neither grow (no headroom proof) nor shrink
	// (no engine violations).
	d := c.Evaluate(sig(0, 0, 50, 0, 0, 64))
	if d.Window != 64 {
		t.Fatalf("all-shed period must hold the window, got %d", d.Window)
	}
}

func TestDeterministicSequence(t *testing.T) {
	// Equal signal sequences through equal configs give equal decisions.
	mk := func() []Decision {
		c := New(Config{MinWindow: 4, MaxWindow: 256, MinWorkers: 1, MaxWorkers: 4, WorkerSustain: 2, Period: time.Second})
		var out []Decision
		w := 64
		for i := 0; i < 50; i++ {
			s := Signals{
				Completed: uint64(100 + i), Violations: uint64(i % 7), Shed: uint64(i % 3),
				P99: time.Duration(i%90) * time.Millisecond, SLO: 100 * time.Millisecond,
				Demand: time.Duration(i%5) * 300 * time.Millisecond, SchedulableGPUs: 2,
				ActiveWorkers: 2, Window: w,
			}
			d := c.Evaluate(s)
			w = d.Window
			out = append(out, d)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}
