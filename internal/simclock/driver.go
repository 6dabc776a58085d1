package simclock

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Driver paces one engine against the wall clock so that a system built
// for simulation can also serve live traffic. Run's goroutine is the
// only one that ever touches the engine, so engine users still never
// need locks. External goroutines get work onto the engine with Inject.
//
// The pacer works in turns: it reads the wall clock once, transfers
// the staged injections, then steps every event due by that instant
// back to back. Injections are staged in a side buffer: Inject never
// blocks on event execution — which makes it safe to call even from
// inside an event callback (the injected Runner runs on a later turn at
// the then-current instant) — and it raises an attention flag that ends
// the current turn after its next step, as a Barrier does.
type Driver struct {
	speed float64
	eng   *Engine

	start        time.Time
	virtualStart Time
	// originMu guards the wall↔virtual correlation above for readers
	// (Origin) racing Run's entry; the pacing loop itself only reads the
	// fields after Run set them.
	originMu  sync.Mutex
	originSet bool

	mu      sync.Mutex // guards pending, barrier and closed, never held during Step
	pending []pendingInjection
	spare   []pendingInjection // drained buffer, swapped back by takePending
	barrier bool               // a Barrier waits for the pacer's next turn
	closed  bool
	wake    chan struct{}
	// attn is raised under mu by Inject and Barrier and cleared by
	// takePending: staged work the pacer must look at before its next
	// step.
	attn atomic.Bool
	// turns counts the pacer's turns. Only Run's goroutine writes it;
	// tests read it after Run has returned.
	turns uint64
	// busyUntil holds short waits off the CPU: a slow yield sets it
	// busyHold ahead. Only Run's goroutine touches it.
	busyUntil time.Time

	// inflight lists the transferred injections that carry an abort
	// hook and have not run yet; close aborts them. Like freeGuards it
	// is touched only by the pacing goroutine.
	inflight   []*guarded
	freeGuards []*guarded

	// barMu admits one Barrier at a time, so park is reused by every
	// call instead of allocated per call. It is unbuffered: the pacer
	// sends true once parked between steps, then waits to receive the
	// Barrier's go-ahead; close sends false to a barrier it turns away.
	barMu sync.Mutex
	park  chan bool
}

// ErrStopped reports that a driver stopped before it could run the
// submitted work.
var ErrStopped = errors.New("simclock: driver stopped")

// pendingInjection is one staged cross-goroutine event.
type pendingInjection struct {
	r  Runner
	ab Aborter
}

// NewDriver wraps eng. speed is the virtual-vs-wall multiplier: 1.0 is
// real time, 10.0 runs ten times faster than the wall clock (≤ 0 means
// 1.0).
func NewDriver(eng *Engine, speed float64) *Driver {
	if speed <= 0 {
		speed = 1.0
	}
	return &Driver{
		speed: speed,
		eng:   eng,
		wake:  make(chan struct{}, 1),
		park:  make(chan bool),
	}
}

// Origin returns the wall instant and virtual instant at which Run
// started pacing, correlating the two clocks: virtual instant v maps to
// wall + (v-virtual)/speed. ok is false until Run has started.
func (d *Driver) Origin() (wall time.Time, virtual Time, ok bool) {
	d.originMu.Lock()
	defer d.originMu.Unlock()
	return d.start, d.virtualStart, d.originSet
}

// virtualAt maps a wall instant to virtual time.
func (d *Driver) virtualAt(wall time.Time) Time {
	return d.virtualStart.Add(time.Duration(float64(wall.Sub(d.start)) * d.speed))
}

// wallAt maps a virtual instant back to the wall instant it is due.
func (d *Driver) wallAt(v Time) time.Time {
	return d.start.Add(time.Duration(float64(v-d.virtualStart) / d.speed))
}

// Inject schedules r onto the engine from any goroutine — including the
// engine goroutine, from inside an event callback. r runs at the
// engine's then-current instant.
//
// Inject reports whether the driver accepted r; false means the driver
// has stopped and r will never run, so a caller holding resources
// against r's execution (admission slots, pooled buffers) must reclaim
// them. The boolean alone cannot promise more: a stop can still race an
// accepted r out of existence. A non-nil ab buys that promise — exactly
// one of r.Run (on the engine) and ab.Abort happens, the latter
// synchronously on refusal or from the stopping pacer's goroutine if
// the driver stops before r has run. r and ab may be the same object.
func (d *Driver) Inject(r Runner, ab Aborter) bool {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		if ab != nil {
			ab.Abort()
		}
		return false
	}
	d.pending = append(d.pending, pendingInjection{r: r, ab: ab})
	d.attn.Store(true)
	d.mu.Unlock()
	d.poke()
	return true
}

// Barrier pauses the engine between two steps and runs fn exclusively
// — the stop-the-world primitive for whole-cluster mutations (worker
// changes, registration, consistent metric snapshots). The pacer
// ends its turn after the step in progress and parks at the top of the
// next one while fn runs on the caller's
// goroutine, so fn may touch engine state. The pause is no event: it
// takes no step and draws no sequence number. Returns ErrStopped
// (without running fn) if the driver stops first. Calling Barrier from
// inside an event callback deadlocks.
func (d *Driver) Barrier(fn func()) error {
	d.barMu.Lock()
	defer d.barMu.Unlock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrStopped
	}
	d.barrier = true
	d.attn.Store(true)
	d.mu.Unlock()
	d.poke()
	if !<-d.park {
		return ErrStopped
	}
	fn()
	d.park <- true
	return nil
}

// poke wakes a pacer parked until its next due event.
func (d *Driver) poke() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// takePending transfers the staged injections in inject order and
// claims a waiting barrier. The two staging buffers ping-pong: the
// drained one returned here is handed back as the next append target,
// so steady-state injection does not grow or reallocate either slice.
// Only Run's goroutine consumes the returned slice, and it finishes
// before calling takePending again.
func (d *Driver) takePending() (pend []pendingInjection, barrier bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pend = d.pending
	d.pending = d.spare[:0]
	d.spare = pend
	barrier, d.barrier = d.barrier, false
	d.attn.Store(false)
	return pend, barrier
}

// guarded is the engine event of a transferred injection that carries
// an abort hook. Aborting only what is still staged would leave a hole
// in the exactly-once promise — an injection already on the engine heap
// behind overdue events when stop is polled would get neither Run nor
// Abort — so the driver keeps such injections listed until they run.
type guarded struct {
	d    *Driver
	slot int // index in d.inflight
	r    Runner
	ab   Aborter // nil once resolved either way
}

func (d *Driver) guard(r Runner, ab Aborter) *guarded {
	var g *guarded
	if n := len(d.freeGuards); n > 0 {
		g = d.freeGuards[n-1]
		d.freeGuards = d.freeGuards[:n-1]
	} else {
		g = &guarded{d: d}
	}
	g.slot, g.r, g.ab = len(d.inflight), r, ab
	d.inflight = append(d.inflight, g)
	return g
}

func (g *guarded) Run() {
	if g.ab == nil {
		return // aborted by close; someone stepped the engine afterwards
	}
	d := g.d
	last := len(d.inflight) - 1
	moved := d.inflight[last]
	d.inflight[g.slot], moved.slot = moved, g.slot
	d.inflight[last] = nil
	d.inflight = d.inflight[:last]
	r := g.r
	g.r, g.ab = nil, nil
	d.freeGuards = append(d.freeGuards, g)
	r.Run()
}

// close refuses further injections and barriers (turning away one not
// yet claimed) and aborts every accepted injection that promised an
// outcome and has not run: those on the engine heap (whose events stay
// behind as no-ops) and those still staged. Injections without an
// abort hook are dropped, or left on the heap unexecuted.
func (d *Driver) close() {
	d.mu.Lock()
	d.closed = true
	dropped, turnAway := d.pending, d.barrier
	d.pending, d.barrier = nil, false
	d.mu.Unlock()
	if turnAway {
		d.park <- false
	}
	for _, g := range d.inflight {
		ab := g.ab
		g.r, g.ab = nil, nil
		ab.Abort()
	}
	d.inflight = nil
	for _, inj := range dropped {
		if inj.ab != nil {
			inj.ab.Abort()
		}
	}
}

// spinWindow, busyYield and busyHold shape the wait for an event due
// within microseconds. A timer armed on an idle process fires through the
// runtime's idle path, 1.1–1.3 ms late at one closed-loop caller
// (bench/README.md), so a wait shorter than spinWindow is spent
// on-CPU, yielding and re-reading the clock, for as long as each yield
// comes back within busyYield. Measured on live_stream (2 vCPUs), every
// wait the pacer made was under 20 µs, almost all under 10 µs, and a
// yield that found nothing else to run came back in ~0.5 µs. A yield
// ten times slower means other goroutines ran, so the Ps are busy and
// will run the timer promptly: the pacer parks for the rest rather than
// take CPU the serving goroutines need (yielding regardless cost
// live_http goodput and set-up time; EXPERIMENTS.md, "A precise
// pacer"). The slow yield itself is a cost, since it queued the pacer
// behind every runnable goroutine where a fired timer would have run it
// next: on live_http, whose two cores are saturated, over half the
// waits saw a slow yield, and without the hold goodput fell 9.4% (0 of
// 10 pairs). So after a slow yield the pacer parks every short wait
// for busyHold, then tries the CPU again.
const (
	spinWindow = 50 * time.Microsecond
	busyYield  = 5 * time.Microsecond
	busyHold   = time.Millisecond
)

// Run paces the engine on the calling goroutine until stop is closed,
// then closes the driver (see close). Each turn reads the wall clock
// once, idle-advances, pauses for a barrier, transfers the staged
// injections, and steps every event due by that instant, checking only
// stop and the attention flag between steps; with nothing due it waits
// (see wait). The origin is the engine's clock at entry. Run must be
// called at most once.
func (d *Driver) Run(stop <-chan struct{}) {
	eng := d.eng
	d.originMu.Lock()
	d.start = time.Now()
	d.virtualStart = eng.Now()
	d.originSet = true
	d.originMu.Unlock()
	defer d.close()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		// A dense workload keeps events perpetually overdue, so the loop
		// may never reach a blocking select — poll stop here and between
		// steps so shutdown is prompt regardless of load.
		select {
		case <-stop:
			return
		default:
		}
		d.turns++
		now := time.Now()
		wv := d.virtualAt(now)
		// Keep the virtual clock tracking the wall clock across idle
		// gaps: when nothing is due before the wall-implied instant,
		// advance the clock to it, so injections land at the instant a
		// wall observer expects — not at whatever instant the last event
		// froze the engine. (Without this, work injected after an idle
		// period is "overdue" and executes unpaced, voiding the speed
		// contract.)
		if eng.NextEventAt() > wv && wv > eng.Now() {
			_ = eng.AdvanceTo(wv)
		}
		pend, barrier := d.takePending()
		if barrier { // park between steps while the barrier's fn runs
			d.park <- true
			<-d.park
		}
		for i := range pend {
			r := pend[i].r
			if pend[i].ab != nil {
				r = d.guard(r, pend[i].ab)
			}
			eng.ScheduleRun(eng.Now(), r)
			pend[i] = pendingInjection{} // buffer is recycled; drop refs
		}
		next := eng.NextEventAt()
		if next <= wv {
			for {
				eng.Step()
				if d.attn.Load() || eng.NextEventAt() > wv {
					break
				}
				select {
				case <-stop:
					return
				default:
				}
			}
			continue
		}
		if next == MaxTime {
			// Nothing due, nothing queued: sleep until injected work
			// arrives.
			select {
			case <-stop:
				return
			case <-d.wake:
				continue
			}
		}
		if !d.wait(stop, timer, now, d.wallAt(next)) {
			return
		}
	}
}

// wait returns once the wall clock reaches due or staged work needs the
// pacer, reporting false if stop closed first. Short waits yield on-CPU
// while the process is otherwise idle (see spinWindow); the rest park
// on timer, the one Run re-arms for every park.
func (d *Driver) wait(stop <-chan struct{}, timer *time.Timer, now, due time.Time) bool {
	delay := due.Sub(now)
	if delay < spinWindow && now.After(d.busyUntil) {
		for delay > 0 && !d.attn.Load() {
			runtime.Gosched()
			t := time.Now()
			busy := t.Sub(now) >= busyYield
			now, delay = t, due.Sub(t)
			if busy {
				d.busyUntil = t.Add(busyHold)
				break
			}
		}
		if delay <= 0 || d.attn.Load() {
			return true
		}
	}
	timer.Reset(delay)
	select {
	case <-stop:
		return false
	case <-d.wake:
		if !timer.Stop() {
			// It fired meanwhile. Drain it; a send that lands after this
			// only costs the next park a spurious, harmless wake.
			select {
			case <-timer.C:
			default:
			}
		}
	case <-timer.C:
	}
	return true
}
