package workload

import (
	"time"

	"clockwork/internal/core"
	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

// ClosedLoopClient maintains a fixed number of outstanding requests to
// one model: each response immediately triggers the next request
// (§6.1 runs 16 such clients per model).
type ClosedLoopClient struct {
	cl          *core.Cluster
	model       string
	slo         time.Duration
	concurrency int
	stopAt      simclock.Time

	sent      uint64
	succeeded uint64
}

// NewClosedLoop returns a closed-loop client; Start begins submission.
func NewClosedLoop(cl *core.Cluster, model string, slo time.Duration, concurrency int) *ClosedLoopClient {
	if concurrency <= 0 {
		panic("workload: non-positive concurrency")
	}
	return &ClosedLoopClient{cl: cl, model: model, slo: slo, concurrency: concurrency, stopAt: simclock.MaxTime}
}

// StopAt sets the instant after which completed requests are not
// re-issued. Must be called before Start.
func (c *ClosedLoopClient) StopAt(t simclock.Time) { c.stopAt = t }

// Start issues the initial window of requests.
func (c *ClosedLoopClient) Start() {
	for i := 0; i < c.concurrency; i++ {
		c.submit()
	}
}

func (c *ClosedLoopClient) submit() {
	if c.cl.Eng.Now() >= c.stopAt {
		return
	}
	c.sent++
	c.cl.Submit(core.SubmitSpec{Model: c.model, SLO: c.slo}, core.ResultFunc(func(r core.Result) {
		if r.Success && r.Latency <= c.slo {
			c.succeeded++
		}
		c.submit()
	}))
}

// Sent returns the number of requests issued.
func (c *ClosedLoopClient) Sent() uint64 { return c.sent }

// Succeeded returns the number of responses within SLO.
func (c *ClosedLoopClient) Succeeded() uint64 { return c.succeeded }

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
