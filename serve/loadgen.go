package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"clockwork"
	"clockwork/internal/telemetry"
	"clockwork/workload"
)

// Transport is the client-side face RunLoad drives: both Client
// (HTTP/JSON) and StreamClient (binary stream) satisfy it, so one
// load-generation loop measures either front door.
type Transport interface {
	Infer(ctx context.Context, req clockwork.Request) (clockwork.Result, error)
	Models(ctx context.Context) ([]string, error)
}

// BatchTransport is a Transport that can pipeline a whole batch of
// submissions in one write (StreamClient.SubmitBatch). RunLoad uses it
// when LoadConfig.Batch > 1.
type BatchTransport interface {
	Transport
	SubmitBatch(ctx context.Context, reqs []clockwork.Request) ([]BatchOutcome, error)
}

// LoadConfig parameterises one wall-clock load-generation run against a
// clockworkd server.
type LoadConfig struct {
	// Transport is the transport to drive (required): a Client, a
	// StreamClient, or any custom Transport.
	Transport Transport
	// Batch, if > 1, makes closed-loop workers submit their requests
	// in pipelined batches of this size (requires a BatchTransport;
	// open-loop mode ignores it).
	Batch int
	// Models are the instance names to spread requests over,
	// round-robin. Empty means "ask the server" (GET /v1/models).
	Models []string
	// SLO is the per-request latency objective (default 250ms virtual).
	SLO time.Duration
	// Concurrency is the closed-loop worker count — and, in open-loop
	// mode, the cap on outstanding requests (default 8).
	Concurrency int
	// Rate, if > 0, switches to open-loop mode: arrivals are Poisson at
	// this many requests per wall second (the §6.3 arrival process via
	// workload.NewPoissonArrivals), regardless of completions. Arrivals
	// that would exceed the Concurrency cap are counted as Overloaded
	// and dropped client-side, keeping the generator non-blocking.
	Rate float64
	// Duration bounds the run in wall time (default 2s). MaxRequests,
	// if > 0, additionally stops after that many submissions.
	Duration    time.Duration
	MaxRequests uint64
	// Seed seeds the arrival process (open loop only).
	Seed uint64
}

// LatencySummary condenses the client-observed wall-clock latency
// histogram into the paper's tail percentiles.
type LatencySummary struct {
	P50, P90, P99, P999, Max, Mean time.Duration
}

// LoadReport is the outcome of one load-generation run. Consistency
// invariant: Sent == Completed + Errors + Shed, and Duplicates == 0 —
// every submitted request got exactly one response.
type LoadReport struct {
	// Sent counts submissions; Completed counts HTTP-level successful
	// round trips (the request may still have failed inside the system
	// — see Succeeded); Errors counts transport/HTTP failures.
	Sent, Completed, Errors uint64
	// Overloaded counts open-loop arrivals dropped client-side because
	// Concurrency requests were already outstanding.
	Overloaded uint64
	// Shed counts requests the server refused with ErrOverloaded (its
	// in-flight admission window was full) — the backpressure signal.
	// ShedRate is Shed / Sent.
	Shed     uint64
	ShedRate float64
	// Duplicates counts responses carrying an already-seen request ID —
	// always 0 unless the serving plane loses track of a request.
	Duplicates uint64
	// Succeeded counts executed inferences; WithinSLO those inside
	// their SLO (judged on the engine's virtual clock, like the paper).
	Succeeded, WithinSLO uint64
	// Violations = Completed − WithinSLO: requests the service did not
	// answer within the objective, whatever the failure mode.
	Violations uint64
	// Goodput is WithinSLO per wall-clock second of the run;
	// ViolationRate is Violations / Completed.
	Goodput       float64
	ViolationRate float64
	Elapsed       time.Duration
	// Wall is the client-observed wall-clock round-trip latency;
	// Virtual the engine-observed (server-reported) latency.
	Wall    LatencySummary
	Virtual LatencySummary
}

// String renders the report in the loadgen's output format.
func (r *LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent=%d completed=%d errors=%d shed=%d overloaded=%d duplicates=%d\n",
		r.Sent, r.Completed, r.Errors, r.Shed, r.Overloaded, r.Duplicates)
	if r.Shed > 0 {
		fmt.Fprintf(&b, "shed_rate=%.4f%%\n", r.ShedRate*100)
	}
	fmt.Fprintf(&b, "succeeded=%d within_slo=%d violations=%d\n",
		r.Succeeded, r.WithinSLO, r.Violations)
	fmt.Fprintf(&b, "goodput=%.1f req/s  violation_rate=%.4f%%  elapsed=%v\n",
		r.Goodput, r.ViolationRate*100, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "wall    p50=%v p90=%v p99=%v p99.9=%v max=%v\n",
		r.Wall.P50, r.Wall.P90, r.Wall.P99, r.Wall.P999, r.Wall.Max)
	fmt.Fprintf(&b, "virtual p50=%v p90=%v p99=%v p99.9=%v max=%v\n",
		r.Virtual.P50, r.Virtual.P90, r.Virtual.P99, r.Virtual.P999, r.Virtual.Max)
	return b.String()
}

// loadWorkerState is one generator goroutine's private accounting,
// merged after the run so the hot path takes no locks.
type loadWorkerState struct {
	sent, completed, errors uint64
	shed                    uint64
	succeeded, withinSLO    uint64
	wall, virtual           *telemetry.Histogram
	ids                     []uint64
}

func newLoadWorkerState() *loadWorkerState {
	return &loadWorkerState{wall: telemetry.NewHistogram(), virtual: telemetry.NewHistogram()}
}

// RunLoad drives load at the configured shape until Duration (or
// MaxRequests, or ctx) and reports. The generator waits for every
// outstanding request before returning, so the report is complete: no
// request is in flight when RunLoad returns.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	transport := cfg.Transport
	if transport == nil {
		return nil, fmt.Errorf("serve: LoadConfig needs a Transport")
	}
	if cfg.SLO <= 0 {
		cfg.SLO = 250 * time.Millisecond
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	var batcher BatchTransport
	if cfg.Batch > 1 && cfg.Rate <= 0 {
		var ok bool
		if batcher, ok = transport.(BatchTransport); !ok {
			return nil, fmt.Errorf("serve: Batch=%d needs a batch-capable transport (use the stream transport)", cfg.Batch)
		}
	}
	models := cfg.Models
	if len(models) == 0 {
		var err error
		models, err = transport.Models(ctx)
		if err != nil {
			return nil, fmt.Errorf("serve: listing models: %w", err)
		}
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("serve: no models registered and none configured")
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var budget *uint64
	if cfg.MaxRequests > 0 {
		b := cfg.MaxRequests
		budget = &b
	}
	var budgetMu sync.Mutex
	// takeN claims up to n submissions from the request budget.
	takeN := func(n int) int {
		if budget == nil {
			return n
		}
		budgetMu.Lock()
		defer budgetMu.Unlock()
		if uint64(n) > *budget {
			n = int(*budget)
		}
		*budget -= uint64(n)
		return n
	}
	take := func() bool { return takeN(1) == 1 }

	start := time.Now()
	states := make([]*loadWorkerState, 0, cfg.Concurrency)
	var overloaded uint64

	// one round trip: submit, measure, account. Uses the caller's ctx,
	// not the duration-bounded runCtx: the run window closes the
	// admission of new requests, while requests already in flight run
	// to their outcome (the server answers every request by its
	// deadline, so this is bounded).
	// account books one round trip's outcome into the worker state.
	account := func(st *loadWorkerState, res clockwork.Result, err error, wall time.Duration) {
		if err != nil {
			if errors.Is(err, ErrOverloaded) {
				st.shed++ // server shed the request by design, not a fault
			} else {
				st.errors++
			}
			return
		}
		st.completed++
		st.wall.Observe(wall)
		st.virtual.Observe(res.Latency)
		st.ids = append(st.ids, res.RequestID)
		if res.Success {
			st.succeeded++
			if res.Latency <= cfg.SLO {
				st.withinSLO++
			}
		}
	}

	fire := func(st *loadWorkerState, model string) {
		st.sent++
		t0 := time.Now()
		res, err := transport.Infer(ctx, clockwork.Request{Model: model, SLO: cfg.SLO})
		account(st, res, err, time.Since(t0))
	}

	// fireBatch pipelines one batch through a BatchTransport. The wall
	// figure is the whole batch's round trip, charged to every member:
	// that is the latency a batching client actually observes.
	fireBatch := func(st *loadWorkerState, reqs []clockwork.Request) {
		st.sent += uint64(len(reqs))
		t0 := time.Now()
		outs, err := batcher.SubmitBatch(ctx, reqs)
		wall := time.Since(t0)
		if err != nil {
			st.errors += uint64(len(reqs))
			return
		}
		for _, o := range outs {
			account(st, o.Result, o.Err, wall)
		}
	}

	var wg sync.WaitGroup
	if cfg.Rate <= 0 {
		// Closed loop: each worker keeps exactly one request (or one
		// pipelined batch) in flight.
		for i := 0; i < cfg.Concurrency; i++ {
			st := newLoadWorkerState()
			states = append(states, st)
			wg.Add(1)
			go func(i int, st *loadWorkerState) {
				defer wg.Done()
				reqs := make([]clockwork.Request, 0, cfg.Batch)
				for n := i; runCtx.Err() == nil; n++ {
					if batcher != nil {
						k := takeN(cfg.Batch)
						if k == 0 {
							return
						}
						reqs = reqs[:0]
						for j := 0; j < k; j++ {
							reqs = append(reqs, clockwork.Request{
								Model: models[(n*cfg.Batch+j)%len(models)], SLO: cfg.SLO})
						}
						fireBatch(st, reqs)
						continue
					}
					if !take() {
						return
					}
					fire(st, models[n%len(models)])
				}
			}(i, st)
		}
		wg.Wait()
	} else {
		// Open loop: a pacer draws Poisson gaps; a semaphore caps
		// outstanding requests so overload degrades by dropping
		// client-side instead of blocking the arrival process.
		arrivals := workload.NewPoissonArrivals(cfg.Seed, cfg.Rate)
		sem := make(chan *loadWorkerState, cfg.Concurrency)
		for i := 0; i < cfg.Concurrency; i++ {
			st := newLoadWorkerState()
			states = append(states, st)
			sem <- st
		}
		timer := time.NewTimer(0)
		defer timer.Stop()
		n := 0
	pace:
		for {
			select {
			case <-runCtx.Done():
				break pace
			case <-timer.C:
			}
			timer.Reset(arrivals.Next())
			select {
			case st := <-sem:
				// Charge the request budget only for arrivals actually
				// submitted — overloaded drops don't consume it.
				if !take() {
					sem <- st
					break pace
				}
				model := models[n%len(models)]
				n++
				wg.Add(1)
				go func() {
					defer wg.Done()
					fire(st, model)
					sem <- st
				}()
			default:
				overloaded++
			}
		}
		wg.Wait()
	}

	elapsed := time.Since(start)
	rep := &LoadReport{Overloaded: overloaded, Elapsed: elapsed}
	wall, virtual := telemetry.NewHistogram(), telemetry.NewHistogram()
	seen := make(map[uint64]struct{}, 1<<16)
	for _, st := range states {
		rep.Sent += st.sent
		rep.Completed += st.completed
		rep.Errors += st.errors
		rep.Shed += st.shed
		rep.Succeeded += st.succeeded
		rep.WithinSLO += st.withinSLO
		wall.Merge(st.wall)
		virtual.Merge(st.virtual)
		for _, id := range st.ids {
			if _, dup := seen[id]; dup {
				rep.Duplicates++
			}
			seen[id] = struct{}{}
		}
	}
	rep.Violations = rep.Completed - rep.WithinSLO
	if secs := elapsed.Seconds(); secs > 0 {
		rep.Goodput = float64(rep.WithinSLO) / secs
	}
	if rep.Completed > 0 {
		rep.ViolationRate = float64(rep.Violations) / float64(rep.Completed)
	}
	if rep.Sent > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Sent)
	}
	rep.Wall = summarize(wall)
	rep.Virtual = summarize(virtual)
	return rep, nil
}

func summarize(h *telemetry.Histogram) LatencySummary {
	return LatencySummary{
		P50:  h.Percentile(50),
		P90:  h.Percentile(90),
		P99:  h.Percentile(99),
		P999: h.Percentile(99.9),
		Max:  h.Max(),
		Mean: h.Mean(),
	}
}
