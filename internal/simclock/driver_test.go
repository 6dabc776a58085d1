package simclock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startDriver builds an engine, lets prime schedule on it before the
// pacer runs, and starts a driver over it. The returned stop function
// stops the driver and waits for Run to return; it is idempotent.
func startDriver(t *testing.T, speed float64, prime func(*Engine)) (*Driver, *Engine, func()) {
	t.Helper()
	eng := NewEngine()
	if prime != nil {
		prime(eng)
	}
	d := NewDriver(eng, speed)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		d.Run(stop)
		close(done)
	}()
	var once sync.Once
	return d, eng, func() {
		once.Do(func() { close(stop) })
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Error("Run did not return after stop")
		}
	}
}

// inject is the closure form of Driver.Inject without an abort hook.
func inject(d *Driver, fn func()) bool {
	return d.Inject(Func(fn), nil)
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDriverOneEngineRunsEvents(t *testing.T) {
	var fired atomic.Int32
	_, _, stop := startDriver(t, 1000, func(e *Engine) {
		e.ScheduleRun(e.Now().Add(time.Microsecond), Func(func() { fired.Add(1) }))
		e.ScheduleRun(e.Now().Add(2*time.Microsecond), Func(func() { fired.Add(1) }))
	})
	defer stop()
	waitFor(t, 2*time.Second, "both events to fire", func() bool { return fired.Load() == 2 })
}

func TestDriverOneEngineInject(t *testing.T) {
	d, _, stop := startDriver(t, 0, nil) // speed 0 → treated as 1.0
	var hit atomic.Bool
	inject(d, func() { hit.Store(true) })
	waitFor(t, 2*time.Second, "the injected event", hit.Load)
	stop()

	// Injection after close must not panic and must be ignored.
	inject(d, func() { t.Error("ran after close") })
	time.Sleep(10 * time.Millisecond)
}

// TestDriverOneEnginePacingBounds checks the speed multiplier's pacing
// contract: a span of virtual time can never elapse in less wall time
// than span/speed. (No tight upper bound — a loaded CI machine may run
// arbitrarily late; late is allowed, early is a pacing bug.)
func TestDriverOneEnginePacingBounds(t *testing.T) {
	for _, speed := range []float64{1, 10, 100} {
		const events = 10
		span := 200 * time.Millisecond * time.Duration(speed) // virtual
		var fired atomic.Int32
		start := time.Now()
		_, _, stop := startDriver(t, speed, func(e *Engine) {
			for i := 1; i <= events; i++ {
				e.ScheduleRun(e.Now().Add(span*time.Duration(i)/events), Func(func() { fired.Add(1) }))
			}
		})
		waitFor(t, 30*time.Second, fmt.Sprintf("speed %g: %d events", speed, events),
			func() bool { return fired.Load() == events })
		elapsed := time.Since(start)
		stop()
		if minWall := time.Duration(float64(span) / speed); elapsed < minWall {
			t.Errorf("speed %g: %v of virtual time elapsed in %v wall — faster than the %v floor",
				speed, span, elapsed, minWall)
		}
	}
}

// TestDriverOneEngineInjectAfterStop checks that Inject against a
// stopped driver neither panics nor mutates the engine.
func TestDriverOneEngineInjectAfterStop(t *testing.T) {
	d, e, stop := startDriver(t, 1000, nil)
	stop()
	queued := e.Len()
	for i := 0; i < 100; i++ {
		if inject(d, func() { t.Error("injected fn ran after close") }) {
			t.Fatal("Inject reported accepted after close")
		}
	}
	if e.Len() != queued {
		t.Errorf("Inject after close queued events: %d -> %d", queued, e.Len())
	}
}

// TestDriverOneEngineInjectFromCallback checks Inject's reentrancy
// contract: an event callback may inject follow-up work (the serving
// plane's resubmit-on-result pattern) without deadlocking the driver.
func TestDriverOneEngineInjectFromCallback(t *testing.T) {
	d, _, stop := startDriver(t, 1000, nil)
	defer stop()
	var depth atomic.Int32
	finished := make(chan struct{})
	var chain func()
	chain = func() {
		if depth.Add(1) == 5 {
			close(finished)
			return
		}
		inject(d, chain)
	}
	inject(d, chain)
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatalf("chained injection stalled at depth %d", depth.Load())
	}
}

// TestDriverOneEngineIdleReanchor checks that virtual time keeps
// tracking the wall clock across idle gaps: work injected after an
// idle period lands at the wall-implied instant, and follow-up timers
// it arms are paced — not executed as an "overdue" burst.
func TestDriverOneEngineIdleReanchor(t *testing.T) {
	const speed = 100.0
	d, e, stop := startDriver(t, speed, nil)
	defer stop()

	idle := 100 * time.Millisecond
	time.Sleep(idle) // engine has no events: clock must still advance

	injected := make(chan Time, 1)
	fired := make(chan struct{})
	var injectedWall time.Time
	inject(d, func() {
		injectedWall = time.Now()
		injected <- e.Now()
		e.ScheduleRun(e.Now().Add(time.Second), Func(func() { close(fired) })) // 1s virtual = 10ms wall
	})
	at := <-injected
	// The idle gap was ~100ms wall = ~10s virtual; anything well past
	// the frozen epoch proves re-anchoring (generous lower bound for
	// slow CI).
	if at < Time(float64(idle/2)*speed) {
		t.Fatalf("injection landed at %v virtual; clock did not track the %v idle gap", at, idle)
	}
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("follow-up timer never fired")
	}
	if wall := time.Since(injectedWall); wall < time.Second/speed {
		t.Fatalf("1s virtual timer fired after %v wall — faster than the %v pacing floor",
			wall, time.Second/time.Duration(speed))
	}
}

// TestDriverOneEngineConcurrentInjectStress hammers Inject from many
// goroutines while the driver runs, and overlaps the stop with the
// tail of the injections — the -race workout for the serving plane's
// hot path.
func TestDriverOneEngineConcurrentInjectStress(t *testing.T) {
	d, _, stop := startDriver(t, 1e6, nil) // virtual time nearly free
	const (
		goroutines = 16
		perG       = 500
	)
	var executed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				inject(d, func() { executed.Add(1) })
			}
		}()
	}
	wg.Wait()
	waitFor(t, 30*time.Second, "every injected event",
		func() bool { return executed.Load() == goroutines*perG })
	// Overlap a second wave of injections with the stop: none may
	// panic, and the driver must still shut down.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				inject(d, func() {})
			}
		}()
	}
	stop()
	wg.Wait()
}

// TestMultiInjectAfterStop: a stopped driver refuses injections and
// resolves an abort hook synchronously.
func TestMultiInjectAfterStop(t *testing.T) {
	d, _, stop := startDriver(t, 1000, nil)
	stop()
	if inject(d, func() { t.Error("ran after stop") }) {
		t.Fatal("Inject accepted after stop")
	}
	aborted := false
	if d.Inject(Func(func() { t.Error("ran after stop") }), Func(func() { aborted = true })) {
		t.Fatal("Inject with an abort hook accepted after stop")
	}
	if !aborted {
		t.Fatal("Inject did not abort after stop")
	}
}

// TestMultiBarrier: Barrier runs fn while the pacer is parked between
// steps, and returns ErrStopped after the driver stops.
func TestMultiBarrier(t *testing.T) {
	d, e, stop := startDriver(t, 2000, nil)
	// Keep the engine busy with self-rescheduling work so the barrier
	// has to interrupt a live engine, not an idle one.
	var tick func()
	tick = func() { e.ScheduleRun(e.Now().Add(100*time.Microsecond), Func(tick)) }
	inject(d, tick)
	for round := 0; round < 10; round++ {
		ran := false
		if err := d.Barrier(func() {
			// With the engine paused, reading it is safe.
			_ = e.Now()
			ran = true
		}); err != nil || !ran {
			t.Fatalf("round %d: Barrier err=%v ran=%v", round, err, ran)
		}
	}
	stop()
	if err := d.Barrier(func() { t.Error("barrier fn ran after stop") }); !errors.Is(err, ErrStopped) {
		t.Fatalf("Barrier after stop = %v, want ErrStopped", err)
	}
}

// TestBarrierAllocatesNothing: the pause's channels are driver-owned,
// so a barrier costs no allocation in steady state (Live.Do rides on
// it, and the live round-trip ratchet has no room for a per-call one).
func TestBarrierAllocatesNothing(t *testing.T) {
	d, _, stop := startDriver(t, 1000, nil)
	defer stop()
	fn := func() {}
	if avg := testing.AllocsPerRun(200, func() { _ = d.Barrier(fn) }); avg >= 1 {
		t.Errorf("Barrier allocates %.1f objects per call, want 0", avg)
	}
}

// TestBarrierTakesNoStep: a barrier is a pause between steps, not an
// event. Against a backlog of overdue events at distinct instants, fn
// sees exactly the steps the backlog has run and the next backlog
// event still due — the barrier neither counted a step nor queued
// anything ahead of it.
func TestBarrierTakesNoStep(t *testing.T) {
	var stepped atomic.Int64
	d, e, stop := startDriver(t, 1000, func(e *Engine) {
		for k := 1; k <= 1000; k++ {
			e.ScheduleRun(Time(k), Func(func() {
				time.Sleep(time.Millisecond)
				stepped.Add(1)
			}))
		}
	})
	defer stop()
	waitFor(t, 10*time.Second, "the backlog to start", func() bool { return stepped.Load() >= 2 })
	for round := 0; round < 5; round++ {
		var steps, ran int64
		var next Time
		if err := d.Barrier(func() {
			steps, next, ran = int64(e.Steps()), e.NextEventAt(), stepped.Load()
		}); err != nil {
			t.Fatalf("round %d: Barrier = %v", round, err)
		}
		if ran >= 1000 {
			t.Fatalf("round %d: the backlog drained before the barrier", round)
		}
		if steps != ran || next != Time(ran+1) {
			t.Fatalf("round %d: inside fn Steps()=%d NextEventAt()=%v; the backlog left %d steps and its event at %v due",
				round, steps, next, ran, Time(ran+1))
		}
	}
}

// TestMultiBarrierDuringStop: a barrier issued concurrently with stop
// must converge (run or ErrStopped), never hang.
func TestMultiBarrierDuringStop(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		d, _, stop := startDriver(t, 1000, nil)
		got := make(chan error, 1)
		go func() { got <- d.Barrier(func() {}) }()
		stop()
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("Barrier hung across a concurrent stop")
		}
	}
}

// backlog gives the engine 200 events that are all overdue from the
// first pacer turn and take a millisecond of wall time each, so whatever
// is injected meanwhile sits on the engine heap behind them when stop
// is polled.
type backlog struct {
	stepped atomic.Int64 // backlog events run so far
	drain   atomic.Bool  // set to let the remainder run without sleeping
}

func (b *backlog) prime(e *Engine) {
	for k := 0; k < 200; k++ {
		e.ScheduleRun(0, Func(func() {
			if !b.drain.Load() {
				time.Sleep(time.Millisecond)
			}
			b.stepped.Add(1)
		}))
	}
}

// turn waits until the pacer has certainly been round its loop — and
// so has transferred whatever was staged before the call.
func (b *backlog) turn(t *testing.T) {
	t.Helper()
	from := b.stepped.Load()
	waitFor(t, 10*time.Second, "the pacer to turn", func() bool { return b.stepped.Load() >= from+2 })
}

// TestInjectAbortExactlyOnceAcrossStop: an injection carrying an abort
// hook gets exactly one of run/abort even when stop finds it already
// transferred onto the engine heap, behind overdue events, and not yet
// stepped — where aborting only the staging buffer gives it neither.
func TestInjectAbortExactlyOnceAcrossStop(t *testing.T) {
	var b backlog
	d, e, stop := startDriver(t, 1000, b.prime)
	var ran, aborted atomic.Int32
	check := func(when string) {
		if r, a := ran.Load(), aborted.Load(); r+a != 1 {
			t.Errorf("%s: ran=%d aborted=%d, want exactly one", when, r, a)
		}
	}
	b.turn(t)
	if !d.Inject(Func(func() { ran.Add(1) }), Func(func() { aborted.Add(1) })) {
		t.Fatal("Inject refused while running")
	}
	b.turn(t)
	stop()
	check("after stop")
	// The aborted injection's event is still queued; stepping the engine
	// after the driver has gone must not resurrect it.
	b.drain.Store(true)
	e.Run()
	check("after draining the engine")
}

// TestBarrierStopWithBacklogDoesNotHang: a barrier waiting for the
// pacer's next turn while a backlog runs when the driver stops returns
// (ErrStopped, or nil if the pacer got there first), and Run returns.
func TestBarrierStopWithBacklogDoesNotHang(t *testing.T) {
	var b backlog
	d, _, stop := startDriver(t, 1000, b.prime)
	b.turn(t)
	got := make(chan error, 1)
	go func() { got <- d.Barrier(func() {}) }()
	b.turn(t)
	stop()
	select {
	case err := <-got:
		if err != nil && !errors.Is(err, ErrStopped) {
			t.Fatalf("Barrier = %v, want nil or ErrStopped", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Barrier hung across a stop with a backlog running")
	}
}

// TestTurnStepsTheBacklog: a turn steps every event due by its one
// clock read, so a backlog of 1,000 overdue events at distinct instants
// runs in a handful of turns rather than one turn per event.
func TestTurnStepsTheBacklog(t *testing.T) {
	var fired atomic.Int64
	d, _, stop := startDriver(t, 1000, func(e *Engine) {
		for k := 1; k <= 1000; k++ {
			e.ScheduleRun(Time(k), Func(func() { fired.Add(1) }))
		}
	})
	waitFor(t, 10*time.Second, "the backlog to run", func() bool { return fired.Load() == 1000 })
	stop() // Run has returned: its turn count is safe to read
	if d.turns > 10 {
		t.Fatalf("a backlog of 1000 due events took %d turns, want a handful", d.turns)
	}
}

// TestInjectMidTurnRunsNext: an injection staged while a turn runs ends
// the turn after the step in progress, so it runs at the engine's
// instant ahead of the rest of the turn's backlog.
func TestInjectMidTurnRunsNext(t *testing.T) {
	const mid = 10
	var order []int // engine goroutine only; read after stop
	reached, injected, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	d, _, stop := startDriver(t, 1000, func(e *Engine) {
		for k := 1; k <= 100; k++ {
			e.ScheduleRun(Time(k), Func(func() {
				order = append(order, k)
				switch k {
				case mid:
					close(reached)
					<-injected
				case 100:
					close(finished)
				}
			}))
		}
	})
	<-reached
	inject(d, func() { order = append(order, 0) })
	close(injected)
	<-finished
	stop()
	if len(order) <= mid || order[mid] != 0 {
		t.Fatalf("steps ran in order %v…; want the injection (0) right after backlog event %d", order[:min(len(order), mid+3)], mid)
	}
}

// TestAllocRatchetPacerWait: parking for an event due beyond the yield
// window re-arms the driver's one timer, so a park allocates nothing.
func TestAllocRatchetPacerWait(t *testing.T) {
	const gap = time.Millisecond // > spinWindow at speed 1: every wait parks
	tk := &ticker{gap: gap, fired: make(chan struct{}, 1)}
	_, _, stop := startDriver(t, 1, func(e *Engine) {
		tk.e = e
		e.ScheduleRun(e.Now().Add(gap), tk)
	})
	defer stop()
	<-tk.fired // the pacer is running and the tick is steady
	if avg := testing.AllocsPerRun(100, func() { <-tk.fired }); avg >= 1 {
		t.Errorf("a %v park allocates %.1f objects, want 0", gap, avg)
	}
}

// ticker is an event that re-arms itself one gap later and signals each
// firing, allocating nothing.
type ticker struct {
	e     *Engine
	gap   time.Duration
	fired chan struct{}
}

func (tk *ticker) Run() {
	tk.e.ScheduleRun(tk.e.Now().Add(tk.gap), tk)
	select {
	case tk.fired <- struct{}{}:
	default:
	}
}
