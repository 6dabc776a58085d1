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
	e.ScheduleRun(Time(30), Func(func() { order = append(order, 3) }))
	e.ScheduleRun(Time(10), Func(func() { order = append(order, 1) }))
	e.ScheduleRun(Time(20), Func(func() { order = append(order, 2) }))
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
		e.ScheduleRun(Time(5), Func(func() { order = append(order, i) }))
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
	e.ScheduleRun(Time(100), Func(func() {
		e.ScheduleRun(Time(50), Func(func() { firedAt = e.Now() })) // in the past
	}))
	e.Run()
	if firedAt != Time(100) {
		t.Fatalf("past event fired at %v, want clamped to 100", firedAt)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.AtRun(Time(10), Func(func() { fired = true }))
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
	tm := e.AtRun(Time(1), Func(func() {}))
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	count := 0
	e.ScheduleRun(Time(10), Func(func() { count++ }))
	e.ScheduleRun(Time(20), Func(func() { count++ }))
	e.ScheduleRun(Time(30), Func(func() { count++ }))
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

// TestAdvanceToTakesNoStep: AdvanceTo moves the clock up to the next
// live event without running it or anything else, and refuses to pass
// it or to move backwards.
func TestAdvanceToTakesNoStep(t *testing.T) {
	e := NewEngine()
	fired := false
	e.ScheduleRun(Time(10), Func(func() { fired = true }))
	for _, to := range []Time{5, 10} {
		if err := e.AdvanceTo(to); err != nil {
			t.Fatalf("AdvanceTo(%v): %v", to, err)
		}
		if e.Now() != to || e.Steps() != 0 || fired || e.NextEventAt() != 10 {
			t.Fatalf("after AdvanceTo(%v): now=%v steps=%d fired=%v next=%v", to, e.Now(), e.Steps(), fired, e.NextEventAt())
		}
	}
	if err := e.AdvanceTo(11); err == nil {
		t.Fatal("AdvanceTo passed a pending event")
	}
	if err := e.AdvanceTo(9); err == nil {
		t.Fatal("AdvanceTo moved the clock backwards")
	}
	if e.Now() != 10 || fired {
		t.Fatalf("a refused AdvanceTo moved the engine: now=%v fired=%v", e.Now(), fired)
	}
	if !e.Step() || !fired || e.Now() != 10 {
		t.Fatalf("the event did not run at its instant after the advance: now=%v", e.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	e.ScheduleRun(Time(1), Func(func() { count++; e.Stop() }))
	e.ScheduleRun(Time(2), Func(func() { count++ }))
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

// TestAfterSchedulesRelative: an event scheduled at Now().Add(d) from
// inside another event fires d after it.
func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.ScheduleRun(Time(time.Millisecond), Func(func() {
		e.ScheduleRun(e.Now().Add(2*time.Millisecond), Func(func() { at = e.Now() }))
	}))
	e.Run()
	if at != Time(3*time.Millisecond) {
		t.Fatalf("relative event fired at %v", at)
	}
}

func TestNextEventAt(t *testing.T) {
	e := NewEngine()
	if e.NextEventAt() != MaxTime {
		t.Fatal("empty queue should report MaxTime")
	}
	tm := e.AtRun(Time(42), Func(func() {}))
	if e.NextEventAt() != Time(42) {
		t.Fatal("wrong next event")
	}
	tm.Stop()
	if e.NextEventAt() != MaxTime {
		t.Fatal("cancelled event should not be reported")
	}
}

// TestAtNilPanics: every scheduling form panics on a nil Runner.
func TestAtNilPanics(t *testing.T) {
	for name, schedule := range map[string]func(*Engine){
		"ScheduleRun":   func(e *Engine) { e.ScheduleRun(0, nil) },
		"AtRun":         func(e *Engine) { e.AtRun(0, nil) },
		"ScheduleFront": func(e *Engine) { e.ScheduleFront(0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on nil Runner", name)
				}
			}()
			schedule(NewEngine())
		}()
	}
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
			e.ScheduleRun(at, Func(func() { fired = append(fired, rec{e.Now(), i}) }))
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
		e.ScheduleRun(e.Now().Add(time.Duration(rnd.Intn(1000))), Func(func() {
			if e.Now() < last {
				violations++
			}
			last = e.Now()
			if rnd.Intn(3) == 0 {
				schedule(depth + 1)
			}
		}))
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
	e.ScheduleRun(Time(1), Func(func() {}))
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
	stale := eng.AtRun(Time(10), Func(func() {}))
	if got := stale.When(); got != Time(10) {
		t.Fatalf("pending When() = %v, want 10", got)
	}
	eng.Run() // fires and recycles the node
	// Schedule enough new events to guarantee the recycled node is
	// back in use.
	fired := 0
	for i := 0; i < 8; i++ {
		eng.ScheduleRun(Time(20+i), Func(func() { fired++ }))
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
	tm := eng.AtRun(Time(7), Func(func() {}))
	if got := tm.When(); got != Time(7) {
		t.Fatalf("When() = %v, want 7", got)
	}
	tm.Stop()
	if got := tm.When(); got != 0 {
		t.Fatalf("When() after Stop = %v, want 0", got)
	}
	fired := eng.AtRun(Time(9), Func(func() {}))
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

// TestRunnerEventsInterleave: Func-adapted closures and preallocated
// Runners order identically — the event body's representation must not
// affect (at, seq) ordering.
func TestRunnerEventsInterleave(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.ScheduleRun(Time(5), Func(func() { order = append(order, 1) }))
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

// TestScheduleMatchesAt: ScheduleRun and AtRun draw from one sequence
// counter, so same-instant events fire in scheduling order whichever
// form scheduled them, and ScheduleFront wins every same-instant tie
// while keeping FIFO order among front events.
func TestScheduleMatchesAt(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.ScheduleRun(Time(5), &testRunner{order: &order, tag: 3})
	eng.AtRun(Time(5), &testRunner{order: &order, tag: 4})
	eng.ScheduleRun(Time(5), &testRunner{order: &order, tag: 5})
	eng.ScheduleFront(Time(5), &testRunner{order: &order, tag: 1})
	eng.ScheduleFront(Time(5), &testRunner{order: &order, tag: 2})
	eng.AtRun(Time(3), &testRunner{order: &order, tag: 0})
	eng.Run()
	for i, v := range order {
		if i != v {
			t.Fatalf("order = %v, want [0 1 2 3 4 5]", order)
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
