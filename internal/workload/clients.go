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
	c.cl.Submit(0, core.SubmitSpec{Model: c.model, SLO: c.slo}, core.ResultFunc(func(r core.Result) {
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

// OpenLoopClient submits requests with Poisson (exponential inter-
// arrival) timing at a configurable rate, independent of responses
// (§6.3 uses one per model).
type OpenLoopClient struct {
	cl     *core.Cluster
	model  string
	slo    time.Duration
	rate   float64 // requests/second
	stream *rng.Stream
	stopAt simclock.Time

	sent      uint64
	succeeded uint64
}

// NewOpenLoop returns an open-loop Poisson client.
func NewOpenLoop(cl *core.Cluster, stream *rng.Stream, model string, slo time.Duration, rate float64) *OpenLoopClient {
	if rate <= 0 {
		panic("workload: non-positive rate")
	}
	return &OpenLoopClient{cl: cl, model: model, slo: slo, rate: rate, stream: stream, stopAt: simclock.MaxTime}
}

// StopAt bounds the submission window. Must be called before Start.
func (c *OpenLoopClient) StopAt(t simclock.Time) { c.stopAt = t }

// Start schedules the first arrival.
func (c *OpenLoopClient) Start() { c.scheduleNext() }

func (c *OpenLoopClient) scheduleNext() {
	gap := time.Duration(c.stream.Exp(1.0/c.rate) * float64(time.Second))
	c.cl.Eng.ScheduleRun(c.cl.Eng.Now().Add(gap), (*openLoopArrival)(c))
}

// openLoopArrival is the client seen as its arrival event's Runner.
type openLoopArrival OpenLoopClient

func (a *openLoopArrival) Run() {
	c := (*OpenLoopClient)(a)
	if c.cl.Eng.Now() >= c.stopAt {
		return
	}
	c.sent++
	c.cl.Submit(0, core.SubmitSpec{Model: c.model, SLO: c.slo}, core.ResultFunc(func(r core.Result) {
		if r.Success && r.Latency <= c.slo {
			c.succeeded++
		}
	}))
	c.scheduleNext()
}

// Sent returns the number of requests issued.
func (c *OpenLoopClient) Sent() uint64 { return c.sent }

// Succeeded returns the number of responses within SLO.
func (c *OpenLoopClient) Succeeded() uint64 { return c.succeeded }
