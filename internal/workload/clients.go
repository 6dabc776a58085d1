package workload

import (
	"time"

	"clockwork/internal/core"
	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

// ClosedLoop keeps concurrency requests to model outstanding on cl
// (§6.1 runs 16 such clients per model): each response calls done (when
// non-nil) and only then issues the next request. No request is issued
// at or after stop, the first included.
func ClosedLoop(cl *core.Cluster, model string, slo time.Duration, concurrency int, stop simclock.Time, done func(core.Result)) {
	if concurrency <= 0 {
		panic("workload: non-positive concurrency")
	}
	l := &closedLoop{cl: cl, spec: core.SubmitSpec{Model: model, SLO: slo}, stop: stop, done: done}
	for i := 0; i < concurrency; i++ {
		l.submit()
	}
}

// closedLoop is one model's closed-loop clients, and the sink of every
// request they issue.
type closedLoop struct {
	cl   *core.Cluster
	spec core.SubmitSpec
	stop simclock.Time
	done func(core.Result)
}

func (l *closedLoop) submit() {
	if l.cl.Eng.Now() >= l.stop {
		return
	}
	l.cl.Submit(l.spec, l)
}

// OnResult implements core.ResultSink.
func (l *closedLoop) OnResult(r core.Result) {
	if l.done != nil {
		l.done(r)
	}
	l.submit()
}

// OpenLoop drives one Poisson arrival process on eng (§6.3):
// exponential gaps of mean 1/rate seconds drawn from stream, the first
// counted from now. Each arrival before stop calls arrive and only then
// draws the next gap, so an arrive that draws from the same stream (a
// model choice, say) keeps its place in the stream's sequence. The
// first arrival at or after stop ends the process.
func OpenLoop(eng *simclock.Engine, stream *rng.Stream, rate float64, stop simclock.Time, arrive func()) {
	if rate <= 0 {
		panic("workload: non-positive rate")
	}
	l := &openLoop{eng: eng, stream: stream, mean: 1.0 / rate, stop: stop, arrive: arrive}
	l.next()
}

// openLoop is one Poisson process, and its own arrival event.
type openLoop struct {
	eng    *simclock.Engine
	stream *rng.Stream
	mean   float64 // seconds between arrivals
	stop   simclock.Time
	arrive func()
}

func (l *openLoop) next() {
	gap := time.Duration(l.stream.Exp(l.mean) * float64(time.Second))
	l.eng.ScheduleRun(l.eng.Now().Add(gap), l)
}

func (l *openLoop) Run() {
	if l.eng.Now() >= l.stop {
		return
	}
	l.arrive()
	l.next()
}
