package simclock

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Driver paces one or more engines against the wall clock so that a
// system built for simulation can also serve live traffic: one engine
// for a deterministic single-clock system, one per control-plane shard
// when an N-shard system should use N cores. Each engine has its own
// pacer goroutine, the only goroutine that ever touches it, so engine
// users still never need locks; every pacer shares one wall-clock
// origin. External goroutines get work onto an engine with Inject.
//
// Injections are staged in a side buffer and transferred onto the
// engine between steps: Inject never blocks on event execution — which
// makes it safe to call even from inside an event callback (the
// injected Runner runs on a later loop turn at the then-current
// instant) — and cross-engine work arrives through the same staging.
//
// # Skew protocol (conservative lookahead)
//
// Wall pacing already keeps healthy engines loosely synchronised: no
// pacer advances its clock beyond the wall-implied virtual instant. The
// protocol below additionally bounds how far an engine may run AHEAD of
// a struggling sibling — the classic conservative PDES rule, with the
// lookahead derived from the cross-shard interaction floor (no shard
// can affect another in less than one network latency):
//
//   - every pacer publishes its engine's virtual clock atomically after
//     each step;
//   - no pacer advances its clock beyond min(other clocks) + lookahead;
//   - a pacer blocked with nothing due is "parked" and deemed current
//     with the wall clock, so idle shards never throttle busy ones;
//   - the bound gates only clock ADVANCEMENT — events at or before the
//     current instant (injections, barrier rendezvous) always execute,
//     which is what makes the stop-the-world Barrier deadlock-free
//     even when a shard is throttled.
//
// A throttled pacer still advances its clock up to the bound, so two
// mutually-throttled shards ratchet each other forward lookahead by
// lookahead instead of deadlocking. With one engine there are no
// siblings: the bound is MaxTime and the gate is inert.
//
// Determinism boundary: each engine's execution remains deterministic
// given its own event sequence, but the interleaving ACROSS engines is
// wall-clock dependent — exactly the nondeterminism live serving
// already has at the injection boundary. Bit-exact reproducibility is a
// single-engine property; the skew bound limits cross-shard clock
// divergence so latency accounting stays comparable across shards.
type Driver struct {
	speed     float64
	lookahead time.Duration

	start        time.Time
	virtualStart Time
	// originMu guards the wall↔virtual correlation above for readers
	// (Origin) racing Run's entry; the pacers themselves only read the
	// fields after Run set them.
	originMu  sync.Mutex
	originSet bool

	pacers []*pacer

	// barMu admits one Barrier at a time, so the rendezvous state below
	// is reused by every call instead of allocated per call. arrived is
	// buffered to len(pacers): each pacer reports exactly once per
	// barrier — itself when parked, nil when it stopped first — and a
	// stopping pacer must never block doing so.
	barMu   sync.Mutex
	arrived chan *pacer
	held    []*pacer // pacers parked in the current barrier
}

// ErrStopped reports that a driver stopped before it could run the
// submitted work.
var ErrStopped = errors.New("simclock: driver stopped")

// skewPoll bounds how long a throttled pacer waits before re-reading
// its siblings' clocks.
const skewPoll = 500 * time.Microsecond

// pacer runs one engine against the shared origin.
type pacer struct {
	d   *Driver
	idx int
	eng *Engine

	mu      sync.Mutex // guards pending and closed, never held during Step
	pending []pendingInjection
	spare   []pendingInjection // drained buffer, swapped back by takePending
	closed  bool
	wake    chan struct{}

	// inflight lists the transferred injections that carry an abort
	// hook and have not run yet; close aborts them. Like freeGuards it
	// is touched only by the pacer goroutine.
	inflight   []*guarded
	freeGuards []*guarded

	release chan struct{} // cap 1: Barrier's go-ahead to this pacer's rendezvous

	clock  atomic.Int64 // published virtual clock (ns)
	parked atomic.Bool  // blocked, caught up to the wall: deemed wall-current
}

// pendingInjection is one staged cross-goroutine event. at <= the
// engine's current instant (including the zero Time) means "as soon as
// possible".
type pendingInjection struct {
	at Time
	r  Runner
	ab Aborter
}

// NewDriver wraps engines, one pacer each. speed is the shared
// virtual-vs-wall multiplier: 1.0 is real time, 10.0 runs ten times
// faster than the wall clock (≤ 0 means 1.0). lookahead is the skew
// bound in virtual time (≤ 0 means no bound beyond wall pacing); the
// cluster layer derives it from the network-latency floor, widened so
// an OS scheduling quantum at high speed multipliers does not throttle
// healthy shards (see clockwork.StartLive).
func NewDriver(engines []*Engine, speed float64, lookahead time.Duration) *Driver {
	if len(engines) == 0 {
		panic("simclock: NewDriver with no engines")
	}
	if speed <= 0 {
		speed = 1.0
	}
	d := &Driver{
		speed:     speed,
		lookahead: lookahead,
		arrived:   make(chan *pacer, len(engines)),
		held:      make([]*pacer, 0, len(engines)),
	}
	for i, eng := range engines {
		d.pacers = append(d.pacers, &pacer{
			d:       d,
			idx:     i,
			eng:     eng,
			wake:    make(chan struct{}, 1),
			release: make(chan struct{}, 1),
		})
	}
	return d
}

// ShardClock returns shard i's last published virtual clock — an
// observability read, racy by one event against the running pacer.
func (d *Driver) ShardClock(i int) Time {
	return Time(d.pacers[i].clock.Load())
}

// Run paces every engine — the first on the calling goroutine, the rest
// on one goroutine each — and blocks until stop is closed and every
// pacer has exited. Engines are assumed to share a common virtual
// instant at entry (a freshly built cluster: all at 0); the common
// origin is the latest of their clocks. Run must be called at most
// once.
func (d *Driver) Run(stop <-chan struct{}) {
	var vs Time
	for _, p := range d.pacers {
		if n := p.eng.Now(); n > vs {
			vs = n
		}
		p.publish()
	}
	d.originMu.Lock()
	d.start = time.Now()
	d.virtualStart = vs
	d.originSet = true
	d.originMu.Unlock()
	var wg sync.WaitGroup
	for _, p := range d.pacers[1:] {
		wg.Add(1)
		go func(p *pacer) {
			defer wg.Done()
			p.run(stop)
		}(p)
	}
	d.pacers[0].run(stop)
	wg.Wait()
}

// Origin returns the shared wall instant and virtual instant at which
// Run started pacing, correlating the two clocks: virtual instant v
// maps to wall + (v-virtual)/speed. ok is false until Run has started.
func (d *Driver) Origin() (wall time.Time, virtual Time, ok bool) {
	d.originMu.Lock()
	defer d.originMu.Unlock()
	return d.start, d.virtualStart, d.originSet
}

// wallVirtual maps the current wall instant to shared virtual time.
func (d *Driver) wallVirtual() Time {
	return d.virtualStart.Add(time.Duration(float64(time.Since(d.start)) * d.speed))
}

// wallAt maps a virtual instant back to the wall instant it is due.
func (d *Driver) wallAt(v Time) time.Time {
	return d.start.Add(time.Duration(float64(v-d.virtualStart) / d.speed))
}

// floorBound returns the highest virtual instant shard self may advance
// to: min over the other shards' effective clocks, plus the lookahead.
// A parked sibling's effective clock is the wall-implied instant (it
// will not run anything earlier), so sleepers never hold the fleet
// back. MaxTime means unbounded (single engine, or no lookahead).
func (d *Driver) floorBound(self int, wv Time) Time {
	if len(d.pacers) == 1 || d.lookahead <= 0 {
		return MaxTime
	}
	floor := MaxTime
	for i, s := range d.pacers {
		if i == self {
			continue
		}
		c := Time(s.clock.Load())
		if s.parked.Load() && wv > c {
			c = wv
		}
		if c < floor {
			floor = c
		}
	}
	if floor == MaxTime {
		return MaxTime
	}
	return floor.Add(d.lookahead)
}

// Inject schedules r onto shard's engine from any goroutine — including
// an engine goroutine, from inside an event callback. r runs at virtual
// instant at or the engine's then-current instant, whichever is later:
// the zero Time means "as soon as possible", and a later instant is the
// cross-shard delivery form — the sending shard stamps its own now plus
// the cross-shard network latency, and the clamp absorbs any residual
// skew, which the lookahead bounds. A single-engine driver hosts every
// shard on its one engine.
//
// Inject reports whether the driver accepted r; false means the driver
// has stopped and r will never run, so a caller holding resources
// against r's execution (admission slots, pooled buffers) must reclaim
// them. The boolean alone cannot promise more: a stop can still race an
// accepted r out of existence. A non-nil ab buys that promise — exactly
// one of r.Run (on the engine) and ab.Abort happens, the latter
// synchronously on refusal or from the stopping pacer's goroutine if
// the driver stops before r has run. r and ab may be the same object.
func (d *Driver) Inject(shard int, at Time, r Runner, ab Aborter) bool {
	p := d.pacers[0]
	if len(d.pacers) > 1 {
		p = d.pacers[shard]
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		if ab != nil {
			ab.Abort()
		}
		return false
	}
	p.pending = append(p.pending, pendingInjection{at: at, r: r, ab: ab})
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return true
}

// Barrier pauses every engine at a rendezvous and runs fn exclusively —
// the stop-the-world primitive for cross-shard mutations (model
// migration, registration, consistent metric snapshots). fn runs on
// the caller's goroutine while every pacer goroutine is blocked inside
// its rendezvous event, so fn may touch any engine's state; on each
// engine the pause is exactly one step at one virtual instant. Returns
// ErrStopped (without running fn) if the driver stops first. Calling
// Barrier from inside an event callback deadlocks.
//
// Deadlock-freedom: the rendezvous is an injection, and injections
// execute at the current instant regardless of the skew gate, so even
// a throttled shard reaches its rendezvous promptly; and it carries an
// abort hook, so a pacer that stops instead reports that exactly once.
func (d *Driver) Barrier(fn func()) error {
	d.barMu.Lock()
	defer d.barMu.Unlock()
	for i, p := range d.pacers {
		rv := rendezvous{p}
		d.Inject(i, 0, rv, rv)
	}
	held := d.held[:0]
	for range d.pacers {
		if p := <-d.arrived; p != nil {
			held = append(held, p)
		}
	}
	var err error
	if len(held) == len(d.pacers) {
		fn()
	} else {
		// Some pacer has exited: the surviving engines are no longer
		// all paused, so fn must not run.
		err = ErrStopped
	}
	for _, p := range held {
		p.release <- struct{}{}
	}
	return err
}

// rendezvous is one pacer's half of a Barrier. The release channel is
// per pacer so that a pacer quick to reach the next barrier cannot take
// the go-ahead a slower sibling has yet to consume.
type rendezvous struct{ p *pacer }

func (b rendezvous) Run() {
	b.p.d.arrived <- b.p
	<-b.p.release
}

func (b rendezvous) Abort() { b.p.d.arrived <- nil }

// ---- pacer ----

// takePending transfers the staged injections, preserving inject order.
// The two staging buffers ping-pong: the drained one returned here is
// handed back as the next append target, so steady-state injection does
// not grow or reallocate either slice. Only run's goroutine consumes
// the returned slice, and it finishes before calling takePending again.
func (p *pacer) takePending() []pendingInjection {
	p.mu.Lock()
	defer p.mu.Unlock()
	pend := p.pending
	p.pending = p.spare[:0]
	p.spare = pend
	return pend
}

// guarded is the engine event of a transferred injection that carries
// an abort hook. Aborting only what is still staged would leave a hole
// in the exactly-once promise — an injection already on the engine heap
// behind overdue events when stop is polled would get neither Run nor
// Abort — so the pacer keeps such injections listed until they run.
type guarded struct {
	p    *pacer
	slot int // index in p.inflight
	r    Runner
	ab   Aborter // nil once resolved either way
}

func (p *pacer) guard(r Runner, ab Aborter) *guarded {
	var g *guarded
	if n := len(p.freeGuards); n > 0 {
		g = p.freeGuards[n-1]
		p.freeGuards = p.freeGuards[:n-1]
	} else {
		g = &guarded{p: p}
	}
	g.slot, g.r, g.ab = len(p.inflight), r, ab
	p.inflight = append(p.inflight, g)
	return g
}

func (g *guarded) Run() {
	if g.ab == nil {
		return // aborted by close; someone stepped the engine afterwards
	}
	p := g.p
	last := len(p.inflight) - 1
	moved := p.inflight[last]
	p.inflight[g.slot], moved.slot = moved, g.slot
	p.inflight[last] = nil
	p.inflight = p.inflight[:last]
	r := g.r
	g.r, g.ab = nil, nil
	p.freeGuards = append(p.freeGuards, g)
	r.Run()
}

// close refuses further injections and aborts every accepted one that
// promised an outcome and has not run: those on the engine heap (whose
// events stay behind as no-ops) and those still staged. Injections
// without an abort hook are dropped, or left on the heap unexecuted.
func (p *pacer) close() {
	p.mu.Lock()
	p.closed = true
	dropped := p.pending
	p.pending = nil
	p.mu.Unlock()
	for _, g := range p.inflight {
		ab := g.ab
		g.r, g.ab = nil, nil
		ab.Abort()
	}
	p.inflight = nil
	for _, inj := range dropped {
		if inj.ab != nil {
			inj.ab.Abort()
		}
	}
}

func (p *pacer) publish() {
	p.clock.Store(int64(p.eng.Now()))
}

// run is the pacing loop: idle-advance, transfer, sleep until due,
// step — with the skew gate capping every clock advancement at the
// sibling floor plus lookahead.
func (p *pacer) run(stop <-chan struct{}) {
	defer p.close()
	d := p.d
	for {
		// A dense workload keeps events perpetually overdue, so the loop
		// may never reach a blocking select — poll stop here so shutdown
		// is prompt regardless of load.
		select {
		case <-stop:
			return
		default:
		}
		wv := d.wallVirtual()
		bound := d.floorBound(p.idx, wv)
		// Keep the virtual clock tracking the wall clock across idle
		// gaps: when nothing is due before the wall-implied instant,
		// advance the clock to it (never beyond the skew bound), so
		// injections land at the instant a wall observer expects — not
		// at whatever instant the last event froze the engine. (Without
		// this, work injected after an idle period is "overdue" and
		// executes unpaced, voiding the speed contract.)
		target := wv
		if bound < target {
			target = bound
		}
		if p.eng.NextEventAt() > target && target > p.eng.Now() {
			p.eng.RunUntil(target)
			p.publish()
		}
		pend := p.takePending()
		for i := range pend {
			at, r := pend[i].at, pend[i].r
			if at < p.eng.Now() {
				at = p.eng.Now()
			}
			if pend[i].ab != nil {
				r = p.guard(r, pend[i].ab)
			}
			p.eng.ScheduleRun(at, r)
			pend[i] = pendingInjection{} // buffer is recycled; drop refs
		}
		next := p.eng.NextEventAt()

		if next == MaxTime {
			// Nothing due, nothing queued: sleep until injected work
			// arrives. The shard is wall-current for skew purposes.
			p.parked.Store(true)
			select {
			case <-stop:
				return
			case <-p.wake:
				p.parked.Store(false)
				continue
			}
		}

		if next > bound && next > p.eng.Now() {
			// Conservative stall: a sibling lags more than the
			// lookahead behind this shard's next event. Only clock
			// ADVANCEMENT is gated — an event at or before the current
			// instant (an injection, a barrier rendezvous) falls
			// through and executes — and the clock has already
			// ratcheted up to the bound above, so mutual stalls
			// leapfrog forward rather than deadlock.
			select {
			case <-stop:
				return
			case <-p.wake:
			case <-time.After(skewPoll):
			}
			continue
		}

		if delay := time.Until(d.wallAt(next)); delay > 0 {
			// Sleeping until the due instant: deemed wall-current only
			// when the clock actually reached the wall (a shard capped
			// at the skew bound must not overstate its floor).
			if p.eng.Now() >= wv {
				p.parked.Store(true)
			}
			timer := time.NewTimer(delay)
			select {
			case <-stop:
				timer.Stop()
				return
			case <-p.wake:
				timer.Stop()
				p.parked.Store(false)
				continue
			case <-timer.C:
				p.parked.Store(false)
			}
		}
		p.eng.Step()
		p.publish()
	}
}
