package clockwork

import (
	"errors"
	"sync"
	"time"

	"clockwork/internal/simclock"
)

// This file is the bridge between the deterministic virtual-clock world
// and live serving: StartLive paces a System's engine against the
// wall clock on a dedicated goroutine, and Live is the handle concurrent
// callers use to get onto that goroutine. The determinism boundary is
// exactly here — everything below the engine is the same event-driven
// machinery the simulations run, and the only nondeterminism a live
// system sees is the arrival timing of injected work (see
// ARCHITECTURE.md, "Serving plane").

// ErrLiveStopped is returned by Live.Do when the driver has stopped
// before the submitted function could run.
var ErrLiveStopped = errors.New("clockwork: live driver stopped")

// Live paces a System against the wall clock so it can serve real
// traffic. All engine-side work — submissions, control-plane calls,
// metrics reads — must be funnelled through Inject or Do; the driver
// serialises everything onto the engine goroutine, preserving the
// engine's single-threaded discipline without any locks in the engine
// itself.
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

// StartLive starts pacing the system's engine against the wall clock
// and returns the live handle. speed scales virtual time against wall
// time: 1.0 serves in real time, 100.0 runs the virtual clock a
// hundredfold faster (speeds <= 0 mean 1.0). The driver runs until
// Stop. It panics if the system already has an active Live: two pacers
// on one engine would race.
func (s *System) StartLive(speed float64) *Live {
	if !s.live.CompareAndSwap(false, true) {
		panic("clockwork: StartLive on a System that already has an active Live")
	}
	if speed <= 0 {
		speed = 1.0
	}
	l := &Live{
		sys:   s,
		drv:   simclock.NewDriver(s.cluster.Eng, speed),
		speed: speed,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
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

// Speed returns the effective virtual-vs-wall speed multiplier.
func (l *Live) Speed() float64 { return l.speed }

// WallOrigin correlates the wall clock with the virtual clock: it
// returns the wall instant at which the driver started pacing and the
// virtual instant the engine stood at then, so a virtual timestamp v
// maps to wall origin + (v-virtual)/Speed(). ok is false until the
// driver's first pacing turn (immediately after StartLive returns the
// goroutine may not have started yet). Trace exports embed this so
// flight-recorder timestamps can be aligned with external logs.
func (l *Live) WallOrigin() (wall time.Time, virtual time.Duration, ok bool) {
	w, v, ok := l.drv.Origin()
	return w, v.Duration(), ok
}

// Inject schedules fn onto the engine goroutine "as soon as possible"
// (at the engine's current virtual instant) and returns without waiting
// for it to run. Safe from any goroutine, including engine-side
// callbacks (an OnResult handler may Inject a follow-up submission; it
// runs on a later driver turn). It reports whether the injection was
// accepted: false means the driver has already stopped and fn will
// never run — callers owning resources tied to fn must release them on
// a false return (see serve.Server for the admission-window case).
func (l *Live) Inject(fn func()) bool {
	return l.drv.Inject(simclock.Func(fn), nil)
}

// InjectOn is Inject; shard is ignored, since one controller on one
// engine serves every placement group.
//
// Deprecated: use Inject.
func (l *Live) InjectOn(shard int, fn func()) bool { return l.Inject(fn) }

// InjectOrAbort is Inject with a guaranteed-exactly-once outcome:
// either fn runs on the engine goroutine, or abort runs (on the
// caller's or the driver's goroutine) because the driver stopped before
// fn could run. Use it when fn owns resources — admission slots,
// response channels — that must be released even across a racing Stop.
func (l *Live) InjectOrAbort(fn, abort func()) {
	l.drv.Inject(simclock.Func(fn), simclock.Func(abort))
}

// Every runs fn periodically, every d of virtual time, until the
// driver stops — the hook periodic policies (the closed-loop
// autoscaler) ride on. Each tick is a Do: fn runs at a single virtual
// instant between engine steps, and because Do blocks, an engine that
// has fallen behind drops ticks instead of queueing them. The
// cadence is paced from the wall clock scaled by the driver's speed —
// like every live injection, the exact virtual instants are
// wall-dependent; deterministic replay of the decisions is the
// journal's job, not the ticker's.
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
// companion to Inject, used for control-plane calls and consistent
// metric snapshots. It is a stop-the-world barrier: the pacer parks
// between two steps at the engine's current instant, fn runs on the
// caller's goroutine with the engine paused (and may touch any engine
// state — this is how whole-cluster mutations like registration and
// worker changes stay race-free), then the pacer resumes. The pause takes
// no engine step, so Now and EngineSteps inside fn stamp the position
// between steps where fn ran (see Replay.Do). It returns
// ErrLiveStopped, without running fn, if the driver stopped first.
// Calling Do from inside an engine-side callback deadlocks; use plain
// function calls there (the caller is already on the engine goroutine).
func (l *Live) Do(fn func()) error {
	if err := l.drv.Barrier(fn); err != nil {
		return ErrLiveStopped
	}
	return nil
}

// Stop halts the wall-clock driver and waits for its goroutine to exit.
// Pending virtual events (in-flight requests, timers) are left in the
// engine — callers that need a clean drain should stop admitting
// work and wait for in-flight completions first, which is exactly what
// serve.Server.Shutdown does. Injections that have not run by then have
// their abort hooks run (see InjectOrAbort). Stop is idempotent and
// safe from any goroutine.
func (l *Live) Stop() {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}
