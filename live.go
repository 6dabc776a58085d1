package clockwork

import (
	"errors"
	"sync"
	"time"

	"clockwork/internal/simclock"
)

// This file is the bridge between the deterministic virtual-clock world
// and live serving: StartLive paces a System's engine(s) against the
// wall clock on dedicated goroutines, and Live is the handle concurrent
// callers use to get onto those goroutines. The determinism boundary is
// exactly here — everything below the engines is the same event-driven
// machinery the simulations run, and the only nondeterminism a live
// system sees is the arrival timing of injected work (see
// ARCHITECTURE.md, "Serving plane").
//
// One simclock.Driver paces the system whatever its shape: the single
// engine, or with Config.EnginePerShard one engine per control-plane
// shard, each on its own goroutine under a bounded-skew virtual-time
// sync protocol. Live addresses injection by shard (InjectOn) and Do is
// a stop-the-world barrier in either shape, so whole-cluster reads and
// mutations always see quiescent state.

// ErrLiveStopped is returned by Live.Do when the driver has stopped
// before the submitted function could run.
var ErrLiveStopped = errors.New("clockwork: live driver stopped")

// Live paces a System against the wall clock so it can serve real
// traffic. All engine-side work — submissions, control-plane calls,
// metrics reads — must be funnelled through Inject/InjectOn or Do; the
// driver serialises everything per engine goroutine, preserving each
// engine's single-threaded discipline without any locks in the engines
// themselves.
//
// At most one Live may be active per System, and while it runs the
// System's RunFor/RunUntil must not be called; both are checked.
type Live struct {
	sys   *System
	drv   *simclock.Driver
	speed float64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartLive starts pacing the system's engine(s) against the wall clock
// and returns the live handle. speed scales virtual time against wall
// time: 1.0 serves in real time, 100.0 runs the virtual clock a
// hundredfold faster (speeds <= 0 mean 1.0). The driver runs until
// Stop. It panics if the system already has an active Live: two pacers
// on one engine would race.
//
// With Config.EnginePerShard each shard gets its own pacing goroutine;
// the shards' clocks stay within the bounded-skew window (Config
// .SkewBound, or the derived cross-shard interaction floor) of each
// other, and a wall-clock ticker drives the cross-shard rebalancer
// under a barrier.
func (s *System) StartLive(speed float64) *Live {
	if !s.live.CompareAndSwap(false, true) {
		panic("clockwork: StartLive on a System that already has an active Live")
	}
	if speed <= 0 {
		speed = 1.0
	}
	cl := s.cluster
	l := &Live{
		sys:   s,
		drv:   simclock.NewDriver(cl.Engines(), speed, s.liveLookahead(speed)),
		speed: speed,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if cl.EnginePerShard() {
		// Cross-shard deliveries (submission forwards after a migration)
		// must be wired before any engine runs: the hook hands the event to
		// the destination shard's pacer, which clamps it to that shard's
		// current instant if the requested time already passed.
		cl.SetCrossShardInject(func(shard int, at simclock.Time, r simclock.Runner) bool {
			return l.drv.Inject(shard, at, r, nil)
		})
		// With one engine per shard there is no shared engine to carry the
		// periodic rebalance timer (see core.NewCluster); drive it from the
		// wall clock instead, at the configured RebalanceInterval of
		// virtual time. Each pass runs under the same stop-the-world
		// barrier every whole-cluster mutation uses.
		l.Every(cl.Config().RebalanceInterval, func() { cl.RebalanceOnce() })
	}
	go func() {
		l.drv.Run(l.stop)
		// Cleared here rather than in Stop: exactly once, when pacing has
		// actually ended, and before anyone waiting in Stop is released —
		// a repeated Stop cannot then clear a successor's claim.
		s.live.Store(false)
		close(l.done)
	}()
	return l
}

// liveLookahead derives the driver's bounded-skew window: the
// configured SkewBound if set, otherwise the cross-shard interaction
// floor — no shard can affect another in less than one network latency
// of virtual time — widened to cover an OS scheduling quantum at the
// configured speed so a descheduled pacer does not throttle healthy
// siblings.
func (s *System) liveLookahead(speed float64) time.Duration {
	cfg := s.cluster.Config()
	if cfg.SkewBound > 0 {
		return cfg.SkewBound
	}
	la := cfg.NetLatency
	// 2ms of wall time is a generous scheduling quantum; at speed X the
	// virtual clock covers X times that while a pacer is off-CPU.
	if quantum := time.Duration(2 * float64(time.Millisecond) * speed); quantum > la {
		la = quantum
	}
	return la
}

// Speed returns the effective virtual-vs-wall speed multiplier.
func (l *Live) Speed() float64 { return l.speed }

// WallOrigin correlates the wall clock with the virtual clock: it
// returns the wall instant at which the driver started pacing and the
// virtual instant the engines stood at then, so a virtual timestamp v
// maps to wall origin + (v-virtual)/Speed(). ok is false until the
// driver's first pacing turn (immediately after StartLive returns the
// goroutine may not have started yet). Trace exports embed this so
// flight-recorder timestamps can be aligned with external logs.
func (l *Live) WallOrigin() (wall time.Time, virtual time.Duration, ok bool) {
	w, v, ok := l.drv.Origin()
	return w, v.Duration(), ok
}

// MultiEngine reports whether this driver paces one engine per shard
// (Config.EnginePerShard).
func (l *Live) MultiEngine() bool { return l.sys.cluster.EnginePerShard() }

// Inject schedules fn onto the engine goroutine "as soon as possible"
// (at the engine's current virtual instant) and returns without waiting
// for it to run. Safe from any goroutine, including engine-side
// callbacks (an OnResult handler may Inject a follow-up submission; it
// runs on a later driver turn). It reports whether the injection was
// accepted: false means the driver has already stopped and fn will
// never run — callers owning resources tied to fn must release them on
// a false return (see serve.Server for the admission-window case).
//
// In multi-engine mode Inject lands on shard 0; use InjectOn to target
// the shard owning the state fn touches.
func (l *Live) Inject(fn func()) bool { return l.InjectOn(0, fn) }

// InjectOn schedules fn onto shard's engine goroutine at that engine's
// current virtual instant. It reports whether the injection was
// accepted (false after Stop). Without EnginePerShard every shard lives
// on the one engine and any shard index maps to it.
func (l *Live) InjectOn(shard int, fn func()) bool {
	return l.drv.Inject(shard, 0, simclock.Func(fn), nil)
}

// InjectOrAbortOn is InjectOn with a guaranteed-exactly-once outcome:
// either fn runs on the shard's engine goroutine, or abort runs (on the
// caller's or the driver's goroutine) because the driver stopped before
// fn could run. Use it when fn owns resources — admission slots,
// response channels — that must be released even across a racing Stop.
func (l *Live) InjectOrAbortOn(shard int, fn, abort func()) {
	l.drv.Inject(shard, 0, simclock.Func(fn), simclock.Func(abort))
}

// Every runs fn periodically, every d of virtual time, until the
// driver stops — the hook periodic policies (the closed-loop
// autoscaler) ride on. Each tick is a Do: fn runs at a single virtual
// instant with every engine quiescent (so fn may touch every shard's
// state, which is how an admission-window update crosses shards
// consistently), and because Do blocks, an engine that has fallen
// behind drops ticks instead of queueing them. The cadence is paced
// from the wall clock scaled by the driver's speed — like every live
// injection, the exact virtual instants are wall-dependent;
// deterministic replay of the decisions is the journal's job, not the
// ticker's.
func (l *Live) Every(d time.Duration, fn func()) {
	if d <= 0 {
		return
	}
	period := time.Duration(float64(d) / l.speed)
	if period < time.Millisecond {
		period = time.Millisecond
	}
	go func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-l.done:
				return
			case <-t.C:
				_ = l.Do(fn)
			}
		}
	}()
}

// Do runs fn and blocks until it has completed — the synchronous
// companion to Inject, used for submissions and consistent metric
// snapshots. It is a stop-the-world barrier: every engine's pacer parks
// inside one event at its current instant, fn runs on the caller's
// goroutine with all engines quiescent (and may touch any shard's state
// — this is how whole-cluster mutations like registration and migration
// stay race-free), then the pacers resume. On each engine that is
// exactly one step at one virtual instant, so engine-side reads inside
// fn (Now, EngineSteps) are the stamp of that step. It returns
// ErrLiveStopped, without running fn, if the driver stopped first.
// Calling Do from inside an engine-side callback deadlocks; use plain
// function calls there (the caller is already on the engine goroutine).
func (l *Live) Do(fn func()) error {
	if err := l.drv.Barrier(fn); err != nil {
		return ErrLiveStopped
	}
	return nil
}

// Stop halts the wall-clock driver(s) and waits for the goroutines to
// exit. Pending virtual events (in-flight requests, timers) are left in
// the engines — callers that need a clean drain should stop admitting
// work and wait for in-flight completions first, which is exactly what
// serve.Server.Shutdown does. Injections that have not run by then have
// their abort hooks run (see InjectOrAbortOn). Stop is idempotent and
// safe from any goroutine.
func (l *Live) Stop() {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}
