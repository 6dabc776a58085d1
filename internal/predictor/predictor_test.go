package predictor

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEstimatorEmpty(t *testing.T) {
	e := NewEstimator(10)
	if e.Estimate() != 0 || e.Count() != 0 {
		t.Fatal("empty estimator should estimate 0")
	}
}

func TestEstimatorSeedUsedUntilMeasured(t *testing.T) {
	e := NewEstimator(10)
	e.Seed(5 * time.Millisecond)
	if e.Estimate() != 5*time.Millisecond {
		t.Fatal("seed not used")
	}
	// A measurement below the seed: stay conservative while the window
	// is not full.
	e.Observe(3 * time.Millisecond)
	if e.Estimate() != 5*time.Millisecond {
		t.Fatalf("partial window should not drop below seed: %v", e.Estimate())
	}
	// Fill the window with real measurements; the seed no longer caps.
	for i := 0; i < 10; i++ {
		e.Observe(3 * time.Millisecond)
	}
	if e.Estimate() != 3*time.Millisecond {
		t.Fatalf("full window should use measurements: %v", e.Estimate())
	}
}

func TestEstimatorIsWindowMax(t *testing.T) {
	e := NewEstimator(3)
	e.Observe(1 * time.Millisecond)
	e.Observe(9 * time.Millisecond)
	e.Observe(2 * time.Millisecond)
	if e.Estimate() != 9*time.Millisecond {
		t.Fatalf("estimate = %v", e.Estimate())
	}
	// The 9ms sample ages out after 3 more observations.
	e.Observe(2 * time.Millisecond)
	if e.Estimate() != 9*time.Millisecond {
		t.Fatal("9ms should still be in window")
	}
	e.Observe(2 * time.Millisecond)
	if e.Estimate() != 2*time.Millisecond {
		t.Fatalf("9ms should have aged out: %v", e.Estimate())
	}
}

func TestEstimatorNegativeClamped(t *testing.T) {
	e := NewEstimator(2)
	e.Observe(-time.Second)
	if e.Estimate() != 0 {
		t.Fatal("negative observation should clamp")
	}
}

func TestEstimatorPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEstimator(0)
}

func TestKeyString(t *testing.T) {
	k := Key{Op: Exec, Batch: 4}
	if k.String() != "exec/b4" {
		t.Fatalf("got %q", k.String())
	}
	k2 := Key{Op: Load}
	if k2.String() != "load" {
		t.Fatalf("got %q", k2.String())
	}
}

func TestProfileRouting(t *testing.T) {
	p := NewProfile(0, []int{1, 2, 4}) // 0 → DefaultWindow
	const a, b, c = 3, 9, 5            // model IDs, deliberately not dense
	exec1 := Key{Op: Exec, Batch: 1}
	p.Observe(a, exec1, 2*time.Millisecond)
	p.Observe(b, exec1, 7*time.Millisecond)
	if p.Estimate(a, exec1) != 2*time.Millisecond || p.Estimate(b, exec1) != 7*time.Millisecond {
		t.Fatal("models not isolated")
	}
	if p.Estimate(a, Key{Op: Exec, Batch: 2}) != 0 {
		t.Fatal("batch sizes not isolated")
	}
	if p.Estimate(c, Key{Op: Load}) != 0 || p.Estimate(100, exec1) != 0 {
		t.Fatal("unknown model should estimate 0")
	}
	p.Seed(c, Key{Op: Load}, time.Millisecond)
	if p.Estimate(c, Key{Op: Load}) != time.Millisecond {
		t.Fatal("seed through profile failed")
	}
	// A batch size the profile was not built for is not a key.
	p.Observe(a, Key{Op: Exec, Batch: 3}, time.Second)
	p.Observe(a, Key{Op: Exec, Batch: 64}, time.Second)
	p.Observe(a, Key{Op: "warm", Batch: 1}, time.Second)
	if p.Estimate(a, Key{Op: Exec, Batch: 3}) != 0 || p.Estimate(a, Key{Op: Exec, Batch: 64}) != 0 ||
		p.Estimate(a, Key{Op: "warm", Batch: 1}) != 0 || p.Estimate(a, exec1) != 2*time.Millisecond {
		t.Fatal("a key outside the profile was tracked")
	}
	// Keys come in (Op, Batch) order and export what was observed.
	want := []Key{{Exec, 1}, {Exec, 2}, {Exec, 4}, {Load, 0}}
	if got := p.Keys(); len(got) != len(want) {
		t.Fatalf("keys = %v", got)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("keys = %v", got)
			}
		}
	}
	if w := p.ExportKey(a, exec1); len(w) != 1 || w[0] != 2*time.Millisecond {
		t.Fatalf("export = %v", w)
	}
	if w := p.ExportKey(c, Key{Op: Load}); w != nil {
		t.Fatalf("seed exported: %v", w)
	}
}

// Re-seeding with the value already installed keeps the learned window;
// re-seeding with a different one — the key now names another model —
// starts over from the new seed.
func TestEstimatorReseed(t *testing.T) {
	e := NewEstimator(3)
	e.Seed(5 * time.Millisecond)
	for i := 0; i < 3; i++ {
		e.Observe(2 * time.Millisecond)
	}
	e.Seed(5 * time.Millisecond)
	if e.Estimate() != 2*time.Millisecond || e.Count() != 3 {
		t.Fatalf("same seed dropped the window: %v (%d)", e.Estimate(), e.Count())
	}
	e.Seed(40 * time.Millisecond)
	if e.Estimate() != 40*time.Millisecond || e.Count() != 0 {
		t.Fatalf("new seed kept the old window: %v (%d)", e.Estimate(), e.Count())
	}
	e.Observe(30 * time.Millisecond)
	if e.Estimate() != 40*time.Millisecond || len(e.Export()) != 1 {
		t.Fatalf("after reseed: %v %v", e.Estimate(), e.Export())
	}
}

func TestErrorTracker(t *testing.T) {
	et := NewErrorTracker()
	et.Record(10*time.Millisecond, 8*time.Millisecond)  // over by 2ms
	et.Record(10*time.Millisecond, 11*time.Millisecond) // under by 1ms
	et.Record(10*time.Millisecond, 10*time.Millisecond) // exact → under bucket with 0
	if et.Over.Count() != 1 || et.Under.Count() != 2 {
		t.Fatalf("over=%d under=%d", et.Over.Count(), et.Under.Count())
	}
	if et.Count() != 3 {
		t.Fatalf("count=%d", et.Count())
	}
	if et.Over.Max() != 2*time.Millisecond {
		t.Fatalf("over max = %v", et.Over.Max())
	}
}

// Property: the estimate is always ≥ every duration still in the window
// (never underpredicts the recent past), and equals one of the observed
// values once the window is full.
func TestEstimateDominatesWindowProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEstimator(10)
		for _, v := range raw {
			e.Observe(time.Duration(v) * time.Microsecond)
		}
		// Recompute expected max over last ≤10 observations.
		start := len(raw) - 10
		if start < 0 {
			start = 0
		}
		var max time.Duration
		for _, v := range raw[start:] {
			d := time.Duration(v) * time.Microsecond
			if d > max {
				max = d
			}
		}
		return e.Estimate() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
