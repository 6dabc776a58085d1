package simclock

import (
	"fmt"
	"time"
)

// Engine is a deterministic discrete-event executor. Events scheduled for
// the same instant fire in scheduling order (FIFO), which makes whole-system
// runs reproducible. Engine is not safe for concurrent use; the entire
// simulated system runs on one goroutine. Use Driver to bridge a live
// process onto an Engine.
type Engine struct {
	now     Time
	seq     uint64
	fseq    uint64
	pq      eventHeap
	stepped uint64
	stopped bool
	// free recycles event nodes: the serving hot path schedules a dozen
	// events per request, and pooling them (plus the handle-free
	// ScheduleRun entry point) keeps steady-state scheduling off the heap.
	free []*event
}

// frontSeqBase splits the sequence space: ordinary events draw sequence
// numbers from [frontSeqBase, ...) while ScheduleFront draws from
// [0, frontSeqBase), so a front event always wins the FIFO tie-break
// against every already-queued event at the same instant. Relative
// order within each class is unchanged, so existing runs are
// bit-identical.
const frontSeqBase = uint64(1) << 63

// Timer is a handle to a scheduled event that can be cancelled. The
// generation field guards against event-node recycling: a Timer whose
// event has been reused reports !Pending / Stop()==false, exactly as a
// fired timer does.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer. It returns false if the event already fired or
// was already stopped.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen || t.ev.cancelled || t.ev.fired {
		return false
	}
	t.ev.cancelled = true
	t.ev.r = nil
	return true
}

// Pending reports whether the event is still scheduled.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled && !t.ev.fired
}

// When returns the instant the timer is scheduled for, or the zero Time
// once the timer is no longer pending — fired, stopped, or its pooled
// event node recycled for an unrelated event. (Without the generation
// guard a stale handle would report the *reused* node's instant.)
func (t *Timer) When() Time {
	if !t.Pending() {
		return 0
	}
	return t.ev.at
}

// Runner is the event body: a receiver whose Run method executes when
// the event fires. The serving hot path schedules eight to nine events
// per request (bench's simclock.events_per_req: 8.3 under load, 8.8
// idle); giving recurring events (cancel timers, network hops) a
// permanent receiver instead of a fresh closure removes their per-event
// allocations.
type Runner interface {
	Run()
}

// Aborter is an injection's abort hook: when a live driver stops before
// an injected Runner has run, Abort is called instead of Run (see
// Driver.Inject). A pooled per-request struct typically implements both.
type Aborter interface {
	Abort()
}

// Func adapts a closure to Runner and Aborter, for set-up code and
// one-off events where a preallocated receiver would buy nothing. A
// func value is pointer-shaped, so the interface conversion allocates
// nothing beyond the closure itself.
type Func func()

func (f Func) Run()   { f() }
func (f Func) Abort() { f() }

type event struct {
	at        Time
	seq       uint64
	gen       uint32
	r         Runner
	cancelled bool
	fired     bool
}

// eventHeap is a binary min-heap on (at, seq) — a total order, so the
// pop sequence is a function of the pushed set alone. Hand-rolled rather
// than container/heap for the reason core's stratHeap is: the stdlib
// interface dispatches Less/Swap/Push/Pop dynamically and passes
// elements as `any`, which on the engine's innermost loop cost more
// than the comparisons themselves.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push adds ev, restoring heap order.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() *event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}

// NewEngine returns an engine whose clock reads the epoch (Time 0).
func NewEngine() *Engine {
	return &Engine{seq: frontSeqBase}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the total number of events processed so far.
func (e *Engine) Steps() uint64 { return e.stepped }

// Len returns the number of queued events. Cancelled events still occupy
// the queue until popped, so Len is an upper bound on live events.
func (e *Engine) Len() int { return len(e.pq) }

// ScheduleFront schedules r at instant t ahead of every event already
// queued for that instant (normal scheduling is FIFO among same-instant
// events; front scheduling wins those ties). It exists for deterministic
// replay: a journaled injection must re-enter the engine before the
// same-instant internal events that were scheduled between the original
// injection's transfer and its execution — those executed after it in
// the recorded run, and front scheduling restores that order. Ordinary
// code should use ScheduleRun.
func (e *Engine) ScheduleFront(t Time, r Runner) {
	e.scheduleEv(t, true, r)
}

// ScheduleRun schedules r to run at instant t, without a cancellation
// handle. Scheduling in the past (or at the current instant) is allowed
// and fires on the next step, preserving FIFO order among same-instant
// events. It reuses pooled event nodes, so with a preallocated r it
// allocates nothing. It panics on a nil r, since a nil event is always
// a bug in the caller; note that Func(nil) is a non-nil Runner, so
// callers adapting a closure check it themselves.
func (e *Engine) ScheduleRun(t Time, r Runner) {
	e.scheduleEv(t, false, r)
}

// AtRun is ScheduleRun with a cancellation handle, returned by value so
// cancellable hot-path events (admission-control timers) need no handle
// allocation either. The zero Timer is valid: Stop and Pending
// report false, When reports 0.
func (e *Engine) AtRun(t Time, r Runner) Timer {
	ev := e.scheduleEv(t, false, r)
	return Timer{ev: ev, gen: ev.gen}
}

// scheduleEv queues r at instant t (clamped to now), drawing its
// sequence number from the front class or the ordinary one.
func (e *Engine) scheduleEv(t Time, front bool, r Runner) *event {
	if r == nil {
		panic("simclock: schedule with nil event body")
	}
	if t < e.now {
		t = e.now
	}
	var seq uint64
	if front {
		seq = e.fseq
		e.fseq++
	} else {
		seq = e.seq
		e.seq++
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.r = t, seq, r
		ev.cancelled, ev.fired = false, false
	} else {
		ev = &event{at: t, seq: seq, r: r}
	}
	e.pq.push(ev)
	return ev
}

// recycle returns a popped event node to the free list, invalidating
// any Timer handle still pointing at it via the generation bump.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.r = nil
	if len(e.free) < 4096 {
		e.free = append(e.free, ev)
	}
}

// Step processes the single earliest event. It returns false if the queue
// is empty. Cancelled events are skipped (and not counted as a step).
func (e *Engine) Step() bool {
	for len(e.pq) > 0 {
		ev := e.pq.pop()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		ev.fired = true
		r := ev.r
		e.recycle(ev)
		e.stepped++
		r.Run()
		return true
	}
	return false
}

// Run processes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil processes all events scheduled at or before t, then advances
// the clock to exactly t. It stops early if Stop is called.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		next := e.peek()
		if next == nil || next.at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the clock by d, processing every event due in that span.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now.Add(d))
}

// Stop makes the current Run/RunUntil return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

func (e *Engine) peek() *event {
	for len(e.pq) > 0 {
		if e.pq[0].cancelled {
			e.recycle(e.pq.pop())
			continue
		}
		return e.pq[0]
	}
	return nil
}

// NextEventAt returns the instant of the next live event, or MaxTime if
// the queue is empty.
func (e *Engine) NextEventAt() Time {
	ev := e.peek()
	if ev == nil {
		return MaxTime
	}
	return ev.at
}

// String summarises engine state for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("simclock.Engine{now=%v queued=%d stepped=%d}", e.now, len(e.pq), e.stepped)
}
