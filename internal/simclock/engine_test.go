package simclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var epoch Time
	if got := epoch.Add(3 * time.Millisecond); got != Time(3*time.Millisecond) {
		t.Fatalf("Add: got %v", got)
	}
	a := Time(5 * time.Second)
	b := Time(2 * time.Second)
	if d := a.Sub(b); d != 3*time.Second {
		t.Fatalf("Sub: got %v", d)
	}
	if !b.Before(a) || !a.After(b) {
		t.Fatal("Before/After inconsistent")
	}
	if a.Seconds() != 5.0 {
		t.Fatalf("Seconds: got %v", a.Seconds())
	}
	if Time(90*time.Second).Minutes() != 1.5 {
		t.Fatal("Minutes wrong")
	}
	if Max(a, b) != a || Min(a, b) != b {
		t.Fatal("Max/Min wrong")
	}
	if s := Time(-time.Second).String(); s != "-1s" {
		t.Fatalf("negative String: got %q", s)
	}
}

func TestEngineFiresInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(Time(30), func() { order = append(order, 3) })
	e.At(Time(10), func() { order = append(order, 1) })
	e.At(Time(20), func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != Time(30) {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(Time(5), func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: order[%d]=%d", i, v)
		}
	}
}

func TestEnginePastSchedulingClampsToNow(t *testing.T) {
	e := NewEngine()
	var firedAt Time
	e.At(Time(100), func() {
		e.At(Time(50), func() { firedAt = e.Now() }) // in the past
	})
	e.Run()
	if firedAt != Time(100) {
		t.Fatalf("past event fired at %v, want clamped to 100", firedAt)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(Time(10), func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should succeed")
	}
	if tm.Stop() {
		t.Fatal("second Stop should fail")
	}
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Steps() != 0 {
		t.Fatalf("cancelled event counted as step: %d", e.Steps())
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine()
	tm := e.At(Time(1), func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(Time(10), func() { count++ })
	e.At(Time(20), func() { count++ })
	e.At(Time(30), func() { count++ })
	e.RunUntil(Time(20))
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if e.Now() != Time(20) {
		t.Fatalf("now = %v, want 20", e.Now())
	}
	e.RunFor(15 * time.Nanosecond)
	if count != 3 || e.Now() != Time(35) {
		t.Fatalf("after RunFor: count=%d now=%v", count, e.Now())
	}
}

func TestRunUntilEmptyQueueStillAdvances(t *testing.T) {
	e := NewEngine()
	e.RunUntil(Time(time.Hour))
	if e.Now() != Time(time.Hour) {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(Time(1), func() { count++; e.Stop() })
	e.At(Time(2), func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt)", count)
	}
	// A second Run resumes.
	e.Run()
	if count != 2 {
		t.Fatalf("resume: count = %d", count)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(Time(time.Millisecond), func() {
		e.After(2*time.Millisecond, func() { at = e.Now() })
	})
	e.Run()
	if at != Time(3*time.Millisecond) {
		t.Fatalf("After fired at %v", at)
	}
}

func TestNextEventAt(t *testing.T) {
	e := NewEngine()
	if e.NextEventAt() != MaxTime {
		t.Fatal("empty queue should report MaxTime")
	}
	tm := e.At(Time(42), func() {})
	if e.NextEventAt() != Time(42) {
		t.Fatal("wrong next event")
	}
	tm.Stop()
	if e.NextEventAt() != MaxTime {
		t.Fatal("cancelled event should not be reported")
	}
}

func TestAtNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil fn")
		}
	}()
	NewEngine().At(Time(0), nil)
}

// Property: any set of scheduled instants fires in nondecreasing time
// order, with ties broken by scheduling order.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []int16) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, v := range raw {
			at := Time(int64(v) + 32768) // nonnegative
			i := i
			e.At(at, func() { fired = append(fired, rec{e.Now(), i}) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		}) {
			return false
		}
		// And each event fired at its scheduled time.
		for _, r := range fired {
			if Time(int64(raw[r.seq])+32768) != r.at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock never goes backwards during any run.
func TestClockMonotoneProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	e := NewEngine()
	last := Time(0)
	violations := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		if depth > 3 {
			return
		}
		e.After(time.Duration(rnd.Intn(1000)), func() {
			if e.Now() < last {
				violations++
			}
			last = e.Now()
			if rnd.Intn(3) == 0 {
				schedule(depth + 1)
			}
		})
	}
	for i := 0; i < 500; i++ {
		schedule(0)
	}
	e.Run()
	if violations != 0 {
		t.Fatalf("%d clock regressions", violations)
	}
}

func TestEngineStringer(t *testing.T) {
	e := NewEngine()
	e.At(Time(1), func() {})
	if s := e.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// TestTimerStaleAfterRecycle guards the event-pool generation check: a
// Timer whose event node has fired and been recycled into a NEW event
// must keep reporting fired semantics (Stop false, not Pending), never
// alias the new event.
func TestTimerStaleAfterRecycle(t *testing.T) {
	eng := NewEngine()
	stale := eng.At(Time(10), func() {})
	if got := stale.When(); got != Time(10) {
		t.Fatalf("pending When() = %v, want 10", got)
	}
	eng.Run() // fires and recycles the node
	// Schedule enough new events to guarantee the recycled node is
	// back in use.
	fired := 0
	for i := 0; i < 8; i++ {
		eng.At(Time(20+i), func() { fired++ })
	}
	if stale.Pending() {
		t.Fatal("fired timer reports Pending after node recycling")
	}
	if stale.Stop() {
		t.Fatal("fired timer Stop() returned true after node recycling")
	}
	// The recycled node now holds an unrelated event at an unrelated
	// instant: the stale handle must not report it as its own.
	if got := stale.When(); got != 0 {
		t.Fatalf("stale Timer.When() = %v after node recycling, want 0", got)
	}
	eng.Run()
	if fired != 8 {
		t.Fatalf("stale Timer.Stop cancelled a recycled event: fired=%d, want 8", fired)
	}
}

// TestTimerWhenLifecycle: When reports the scheduled instant only while
// the timer is pending — 0 after firing and after Stop.
func TestTimerWhenLifecycle(t *testing.T) {
	eng := NewEngine()
	tm := eng.At(Time(7), func() {})
	if got := tm.When(); got != Time(7) {
		t.Fatalf("When() = %v, want 7", got)
	}
	tm.Stop()
	if got := tm.When(); got != 0 {
		t.Fatalf("When() after Stop = %v, want 0", got)
	}
	fired := eng.At(Time(9), func() {})
	eng.Run()
	if got := fired.When(); got != 0 {
		t.Fatalf("When() after firing = %v, want 0", got)
	}
}

// testRunner records Run invocations for the closure-free event form.
type testRunner struct {
	order *[]int
	tag   int
}

func (r *testRunner) Run() { *r.order = append(*r.order, r.tag) }

// TestRunnerEventsInterleave: ScheduleRun/AtRun events order identically
// to closure events — the representation must not affect (at, seq)
// ordering.
func TestRunnerEventsInterleave(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(Time(5), func() { order = append(order, 1) })
	eng.ScheduleRun(Time(5), &testRunner{order: &order, tag: 2})
	eng.AtRun(Time(5), &testRunner{order: &order, tag: 3})
	eng.ScheduleRun(Time(3), &testRunner{order: &order, tag: 0})
	eng.Run()
	for i, v := range order {
		if i != v {
			t.Fatalf("order = %v, want [0 1 2 3]", order)
		}
	}
}

// TestAtRunValueTimer: the value Timer from AtRun stops its event, and
// the zero Timer is inert.
func TestAtRunValueTimer(t *testing.T) {
	eng := NewEngine()
	var order []int
	tm := eng.AtRun(Time(5), &testRunner{order: &order, tag: 99})
	if !tm.Pending() || tm.When() != Time(5) {
		t.Fatalf("value timer not pending at 5: pending=%v when=%v", tm.Pending(), tm.When())
	}
	if !tm.Stop() {
		t.Fatal("value timer Stop() = false while pending")
	}
	var zero Timer
	if zero.Pending() || zero.Stop() || zero.When() != 0 {
		t.Fatal("zero Timer is not inert")
	}
	eng.Run()
	if len(order) != 0 {
		t.Fatalf("stopped Runner event still ran: %v", order)
	}
}

// TestScheduleMatchesAt: the handle-free Schedule entry point must
// order identically to At.
func TestScheduleMatchesAt(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(Time(5), func() { order = append(order, 1) })
	eng.At(Time(5), func() { order = append(order, 2) })
	eng.Schedule(Time(3), func() { order = append(order, 0) })
	eng.Run()
	for i, v := range order {
		if i != v {
			t.Fatalf("order = %v, want [0 1 2]", order)
		}
	}
}

// TestEventHeapInterleavedPushPop drives the typed heap directly with
// pushes and pops interleaved (the engine's real access pattern, which
// the all-push-then-run property above does not produce) over a narrow
// key range that forces (at) ties, against a sorted reference.
func TestEventHeapInterleavedPushPop(t *testing.T) {
	rnd := rand.New(rand.NewSource(19))
	var h eventHeap
	var ref []*event
	less := func(a, b *event) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	}
	seq := uint64(0)
	for op := 0; op < 20000; op++ {
		if len(ref) == 0 || rnd.Intn(5) < 3 {
			ev := &event{at: Time(rnd.Intn(50)), seq: seq}
			seq++
			h.push(ev)
			i := sort.Search(len(ref), func(i int) bool { return less(ev, ref[i]) })
			ref = append(ref, nil)
			copy(ref[i+1:], ref[i:])
			ref[i] = ev
			continue
		}
		if got := h.pop(); got != ref[0] {
			t.Fatalf("op %d: popped (at %v, seq %d), want (at %v, seq %d)", op, got.at, got.seq, ref[0].at, ref[0].seq)
		}
		ref = ref[1:]
	}
	for len(ref) > 0 {
		if got := h.pop(); got != ref[0] {
			t.Fatalf("drain: popped (at %v, seq %d), want (at %v, seq %d)", got.at, got.seq, ref[0].at, ref[0].seq)
		}
		ref = ref[1:]
	}
	if len(h) != 0 {
		t.Fatalf("heap holds %d events after the drain", len(h))
	}
}
