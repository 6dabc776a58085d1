package simclock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// One driver, two shapes. The single-engine tests are named
// TestDriverOneEngine*. The contracts that do not depend on the shape —
// Barrier, inject-after-stop, abort — run table-driven over shapes.
var shapes = []int{1, 3}

// startDriver builds n engines, lets prime schedule on them before any
// pacer runs, and starts a driver over them. The returned stop function
// stops the driver and waits for Run to return; it is idempotent.
func startDriver(t *testing.T, n int, speed float64, lookahead time.Duration, prime func([]*Engine)) (*Driver, []*Engine, func()) {
	t.Helper()
	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = NewEngine()
	}
	if prime != nil {
		prime(engines)
	}
	d := NewDriver(engines, speed, lookahead)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		d.Run(stop)
		close(done)
	}()
	var once sync.Once
	return d, engines, func() {
		once.Do(func() { close(stop) })
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Error("Run did not return after stop")
		}
	}
}

// inject is the closure form of Driver.Inject without an abort hook.
func inject(d *Driver, shard int, fn func()) bool {
	return d.Inject(shard, 0, Func(fn), nil)
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

func waitDone(t *testing.T, wg *sync.WaitGroup, timeout time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("timed out waiting for injected work")
	}
}

// ---- single engine: the N=1 pacer ----

func TestDriverOneEngineRunsEvents(t *testing.T) {
	var fired atomic.Int32
	_, _, stop := startDriver(t, 1, 1000, 0, func(e []*Engine) {
		e[0].After(time.Microsecond, func() { fired.Add(1) })
		e[0].After(2*time.Microsecond, func() { fired.Add(1) })
	})
	defer stop()
	waitFor(t, 2*time.Second, "both events to fire", func() bool { return fired.Load() == 2 })
}

func TestDriverOneEngineInject(t *testing.T) {
	d, _, stop := startDriver(t, 1, 0, 0, nil) // speed 0 → treated as 1.0
	var hit atomic.Bool
	inject(d, 0, func() { hit.Store(true) })
	waitFor(t, 2*time.Second, "the injected event", hit.Load)
	stop()

	// Injection after close must not panic and must be ignored.
	inject(d, 0, func() { t.Error("ran after close") })
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
		_, _, stop := startDriver(t, 1, speed, 0, func(e []*Engine) {
			for i := 1; i <= events; i++ {
				e[0].After(span*time.Duration(i)/events, func() { fired.Add(1) })
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
	d, engines, stop := startDriver(t, 1, 1000, 0, nil)
	stop()
	e := engines[0]
	queued := e.Len()
	for i := 0; i < 100; i++ {
		if inject(d, 0, func() { t.Error("injected fn ran after close") }) {
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
	d, _, stop := startDriver(t, 1, 1000, 0, nil)
	defer stop()
	var depth atomic.Int32
	finished := make(chan struct{})
	var chain func()
	chain = func() {
		if depth.Add(1) == 5 {
			close(finished)
			return
		}
		inject(d, 0, chain)
	}
	inject(d, 0, chain)
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
	d, engines, stop := startDriver(t, 1, speed, 0, nil)
	defer stop()
	e := engines[0]

	idle := 100 * time.Millisecond
	time.Sleep(idle) // engine has no events: clock must still advance

	injected := make(chan Time, 1)
	fired := make(chan struct{})
	var injectedWall time.Time
	inject(d, 0, func() {
		injectedWall = time.Now()
		injected <- e.Now()
		e.After(time.Second, func() { close(fired) }) // 1s virtual = 10ms wall
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
	d, _, stop := startDriver(t, 1, 1e6, 0, nil) // virtual time nearly free
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
				inject(d, 0, func() { executed.Add(1) })
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
				inject(d, 0, func() {})
			}
		}()
	}
	stop()
	wg.Wait()
}

// ---- either shape ----

// TestMultiInjectAfterStop: a stopped driver refuses injections on
// every shard and resolves an abort hook synchronously.
func TestMultiInjectAfterStop(t *testing.T) {
	for _, n := range shapes {
		d, _, stop := startDriver(t, n, 1000, 0, nil)
		stop()
		for shard := 0; shard < n; shard++ {
			if inject(d, shard, func() { t.Error("ran after stop") }) {
				t.Fatalf("n=%d: Inject(%d) accepted after stop", n, shard)
			}
			aborted := false
			if d.Inject(shard, 0, Func(func() { t.Error("ran after stop") }), Func(func() { aborted = true })) {
				t.Fatalf("n=%d: Inject(%d) with an abort hook accepted after stop", n, shard)
			}
			if !aborted {
				t.Fatalf("n=%d: Inject(%d) did not abort after stop", n, shard)
			}
		}
	}
}

// TestMultiBarrier: Barrier runs fn while every pacer is blocked at its
// rendezvous, and returns ErrStopped after the driver stops.
func TestMultiBarrier(t *testing.T) {
	for _, n := range shapes {
		d, engines, stop := startDriver(t, n, 2000, 0, nil)
		// Keep every shard busy with self-rescheduling work so the barrier
		// has to interrupt live engines, not idle ones.
		for i := range engines {
			i := i
			var tick func()
			tick = func() { engines[i].After(100*time.Microsecond, tick) }
			inject(d, i, tick)
		}
		for round := 0; round < 10; round++ {
			ran := false
			if err := d.Barrier(func() {
				// With every engine paused, reading all clocks is safe.
				for i := range engines {
					_ = engines[i].Now()
				}
				ran = true
			}); err != nil || !ran {
				t.Fatalf("n=%d round %d: Barrier err=%v ran=%v", n, round, err, ran)
			}
		}
		stop()
		if err := d.Barrier(func() { t.Error("barrier fn ran after stop") }); !errors.Is(err, ErrStopped) {
			t.Fatalf("n=%d: Barrier after stop = %v, want ErrStopped", n, err)
		}
	}
}

// TestBarrierAllocatesNothing: the rendezvous is driver-owned, so a
// barrier costs no allocation in steady state (Live.Do rides on it, and
// the live round-trip ratchet has no room for a per-call rendezvous).
func TestBarrierAllocatesNothing(t *testing.T) {
	for _, n := range shapes {
		d, _, stop := startDriver(t, n, 1000, 0, nil)
		fn := func() {}
		if avg := testing.AllocsPerRun(200, func() { _ = d.Barrier(fn) }); avg >= 1 {
			t.Errorf("n=%d: Barrier allocates %.1f objects per call, want 0", n, avg)
		}
		stop()
	}
}

// TestMultiBarrierDuringStop: a barrier issued concurrently with stop
// must converge (run or ErrStopped), never hang.
func TestMultiBarrierDuringStop(t *testing.T) {
	for _, n := range shapes {
		for trial := 0; trial < 20; trial++ {
			d, _, stop := startDriver(t, n, 1000, 0, nil)
			got := make(chan error, 1)
			go func() { got <- d.Barrier(func() {}) }()
			stop()
			select {
			case <-got:
			case <-time.After(5 * time.Second):
				t.Fatalf("n=%d: Barrier hung across a concurrent stop", n)
			}
		}
	}
}

// backlog gives every engine 200 events that are all overdue from the
// first pacer turn and take a millisecond of wall time each, so whatever
// is injected meanwhile sits on the engine heap behind them when stop
// is polled.
type backlog struct {
	stepped []atomic.Int64 // backlog events run so far, per engine
	drain   atomic.Bool    // set to let the remainder run without sleeping
}

func (b *backlog) prime(engines []*Engine) {
	b.stepped = make([]atomic.Int64, len(engines))
	for i, e := range engines {
		i := i
		for k := 0; k < 200; k++ {
			e.Schedule(0, func() {
				if !b.drain.Load() {
					time.Sleep(time.Millisecond)
				}
				b.stepped[i].Add(1)
			})
		}
	}
}

// turn waits until every pacer has certainly been round its loop — and
// so has transferred whatever was staged before the call.
func (b *backlog) turn(t *testing.T) {
	t.Helper()
	for i := range b.stepped {
		from := b.stepped[i].Load()
		waitFor(t, 10*time.Second, "the pacer to turn", func() bool { return b.stepped[i].Load() >= from+2 })
	}
}

// TestInjectAbortExactlyOnceAcrossStop: an injection carrying an abort
// hook gets exactly one of run/abort even when stop finds it already
// transferred onto the engine heap, behind overdue events, and not yet
// stepped — where aborting only the staging buffer gives it neither.
func TestInjectAbortExactlyOnceAcrossStop(t *testing.T) {
	for _, n := range shapes {
		var b backlog
		d, engines, stop := startDriver(t, n, 1000, 0, b.prime)
		ran := make([]atomic.Int32, n)
		aborted := make([]atomic.Int32, n)
		check := func(when string) {
			for shard := 0; shard < n; shard++ {
				if r, a := ran[shard].Load(), aborted[shard].Load(); r+a != 1 {
					t.Errorf("n=%d shard %d %s: ran=%d aborted=%d, want exactly one", n, shard, when, r, a)
				}
			}
		}
		b.turn(t)
		for shard := 0; shard < n; shard++ {
			shard := shard
			if !d.Inject(shard, 0, Func(func() { ran[shard].Add(1) }), Func(func() { aborted[shard].Add(1) })) {
				t.Fatalf("n=%d: Inject(%d) refused while running", n, shard)
			}
		}
		b.turn(t)
		stop()
		check("after stop")
		// The aborted injections' events are still queued; stepping the
		// engines after the driver has gone must not resurrect them.
		b.drain.Store(true)
		for _, e := range engines {
			e.Run()
		}
		check("after draining the engines")
	}
}

// TestBarrierStopWithBacklogDoesNotHang: a barrier whose rendezvous
// events are queued behind a backlog when the driver stops returns
// (ErrStopped, or nil if every shard got there first), and Run returns.
func TestBarrierStopWithBacklogDoesNotHang(t *testing.T) {
	for _, n := range shapes {
		var b backlog
		d, _, stop := startDriver(t, n, 1000, 0, b.prime)
		b.turn(t)
		got := make(chan error, 1)
		go func() { got <- d.Barrier(func() {}) }()
		b.turn(t)
		stop()
		select {
		case err := <-got:
			if err != nil && !errors.Is(err, ErrStopped) {
				t.Fatalf("n=%d: Barrier = %v, want nil or ErrStopped", n, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("n=%d: Barrier hung across a stop with its rendezvous behind a backlog", n)
		}
	}
}

// ---- several engines ----

// TestMultiInjectRoutesToShard: injections run on the engine they were
// addressed to.
func TestMultiInjectRoutesToShard(t *testing.T) {
	d, engines, stop := startDriver(t, 3, 1000, 0, nil)
	defer stop()
	var wg sync.WaitGroup
	var ran [3]atomic.Bool
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		if !inject(d, i, func() {
			// The engine is only ever touched by its own pacer: a Now()
			// read here proves we are on shard i's goroutine.
			_ = engines[i].Now()
			ran[i].Store(true)
			wg.Done()
		}) {
			t.Fatalf("Inject(%d) refused while running", i)
		}
	}
	waitDone(t, &wg, 5*time.Second)
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("shard %d injection did not run", i)
		}
	}
}

// TestMultiHandoffClamped: cross-shard handoffs — Inject with an
// instant — land at the stamped instant or the destination's current
// instant, whichever is later.
func TestMultiHandoffClamped(t *testing.T) {
	d, engines, stop := startDriver(t, 2, 10000, 0, nil)
	defer stop()
	var wg sync.WaitGroup
	wg.Add(1)
	var src, dst Time
	inject(d, 0, func() {
		src = engines[0].Now()
		at := src.Add(50 * time.Microsecond)
		if !d.Inject(1, at, Func(func() {
			dst = engines[1].Now()
			wg.Done()
		}), nil) {
			t.Error("handoff refused while running")
			wg.Done()
		}
	})
	waitDone(t, &wg, 5*time.Second)
	if dst < src.Add(50*time.Microsecond) {
		t.Fatalf("handoff delivered early: src=%v dst=%v", src, dst)
	}
}

// TestMultiSkewBound: while one shard is wedged inside a long event
// (its clock frozen, not parked), a sibling with runnable work must not
// advance more than the lookahead past it.
func TestMultiSkewBound(t *testing.T) {
	const lookahead = 2 * time.Millisecond
	const speed = 100.0
	d, engines, stop := startDriver(t, 2, speed, lookahead, nil)
	defer stop()

	wedged := make(chan struct{})
	releaseWedge := make(chan struct{})
	inject(d, 0, func() {
		close(wedged)
		<-releaseWedge // freeze shard 0's clock mid-event
	})
	<-wedged
	frozen := d.ShardClock(0)

	// Shard 1: dense self-rescheduling work that would race far ahead
	// of the wall if unthrottled, and far past shard 0 without the
	// bound (the wall alone allows speed×elapsed of divergence).
	var tick func()
	tick = func() { engines[1].After(10*time.Microsecond, tick) }
	inject(d, 1, tick)

	time.Sleep(100 * time.Millisecond) // wall headroom ≈ 10s of virtual time
	ahead := d.ShardClock(1) - frozen
	close(releaseWedge)
	// Allowed: lookahead plus one pending event's worth of slop.
	if slack := lookahead + time.Millisecond; time.Duration(ahead) > slack {
		t.Fatalf("shard 1 ran %v ahead of the wedged shard 0, want <= %v", time.Duration(ahead), slack)
	}
}

// TestMultiIdleShardDoesNotThrottle: a parked (idle) shard is deemed
// wall-current, so a busy sibling keeps pace with the wall clock.
func TestMultiIdleShardDoesNotThrottle(t *testing.T) {
	const speed = 1000.0
	d, engines, stop := startDriver(t, 2, speed, time.Millisecond, nil)
	defer stop()
	// Shard 0 stays empty (parked). Shard 1 runs dense work.
	var tick func()
	tick = func() { engines[1].After(500*time.Microsecond, tick) }
	inject(d, 1, tick)
	time.Sleep(50 * time.Millisecond)
	// At speed 1000, 50ms wall ≈ 50s virtual. The busy shard must have
	// advanced far beyond the 1ms lookahead — i.e. the idle sibling did
	// not hold it back.
	if got := time.Duration(d.ShardClock(1)); got < time.Second {
		t.Fatalf("busy shard at %v after 50ms wall at speed %v: idle sibling throttled it", got, speed)
	}
}
