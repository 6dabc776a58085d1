package core

import (
	"fmt"
	"time"

	"clockwork/internal/simclock"
	"clockwork/trace"
)

// Reason classifies why a request did not succeed. It replaces the
// magic strings the first API shipped with ("cancelled"/"rejected"/
// "timeout"); String() still renders those exact words so trace logs
// and printed output stay stable.
type Reason uint8

// Failure reasons, in escalating order of how late the failure surfaced.
const (
	// ReasonNone means the request succeeded.
	ReasonNone Reason = iota
	// ReasonCancelled: the controller determined in advance that the SLO
	// could not be met (admission control, §4.1), or the client cancelled
	// the request while it was still queued.
	ReasonCancelled
	// ReasonRejected: a worker could not honour the action's timing
	// window (a misprediction) and cancelled it.
	ReasonRejected
	// ReasonTimeout: the request's deadline passed while its action was
	// in flight; the client learns of the failure at the deadline.
	ReasonTimeout
	// ReasonWorkerFailed: the worker executing the request was failed via
	// the control plane; its in-flight work is lost.
	ReasonWorkerFailed
	// ReasonUnregistered: the target model was not registered (or was
	// unregistered while the request was in transit or queued).
	ReasonUnregistered
)

// The flight recorder mirrors the Reason codes so clockwork/trace
// stays importable without the engine; these constant pairs fail to
// compile (unsigned-constant overflow) if the enums ever diverge.
const (
	_ = uint8(ReasonNone) - trace.ReasonNone
	_ = trace.ReasonNone - uint8(ReasonNone)
	_ = uint8(ReasonCancelled) - trace.ReasonCancelled
	_ = trace.ReasonCancelled - uint8(ReasonCancelled)
	_ = uint8(ReasonRejected) - trace.ReasonRejected
	_ = trace.ReasonRejected - uint8(ReasonRejected)
	_ = uint8(ReasonTimeout) - trace.ReasonTimeout
	_ = trace.ReasonTimeout - uint8(ReasonTimeout)
	_ = uint8(ReasonWorkerFailed) - trace.ReasonWorkerFailed
	_ = trace.ReasonWorkerFailed - uint8(ReasonWorkerFailed)
	_ = uint8(ReasonUnregistered) - trace.ReasonUnregistered
	_ = trace.ReasonUnregistered - uint8(ReasonUnregistered)
)

// String implements fmt.Stringer. ReasonNone renders as the empty
// string, matching the old convention of "Reason is empty on success".
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return ""
	case ReasonCancelled:
		return "cancelled"
	case ReasonRejected:
		return "rejected"
	case ReasonTimeout:
		return "timeout"
	case ReasonWorkerFailed:
		return "worker-failed"
	case ReasonUnregistered:
		return "unregistered"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// SubmitSpec carries everything a caller may say about one inference
// request. Model and SLO are required; the rest default to zero values
// (FIFO within the model's queue, no tenant, no batch cap).
type SubmitSpec struct {
	// Model is the registered instance name the request targets.
	Model string
	// SLO is the end-to-end latency objective; the controller derives
	// the request's internal deadline from it.
	SLO time.Duration
	// Priority orders requests within a model's queue: higher-priority
	// requests are served before lower-priority ones, FIFO within a
	// priority level. The default 0 preserves pure FIFO.
	Priority int
	// Tenant labels the request for per-tenant accounting. Optional.
	Tenant string
	// MaxBatch, if > 0, caps the batch size this request may execute
	// in (e.g. 1 forces solo execution for latency experiments).
	MaxBatch int

	// id is Model resolved by the cluster's submission edge, zero when
	// the spec did not come through it (a bare controller resolves the
	// name itself).
	id ModelID

	// preCancelled marks a request the client cancelled while it was
	// still in transit to the controller: it is accounted and answered
	// (ReasonCancelled) on arrival, before the scheduler ever sees it.
	// Set by the cluster layer via Handle.Cancel.
	preCancelled bool
}

// Request is one client inference request as the controller sees it.
type Request struct {
	ID uint64
	// Model is the instance name, for responses, traces and schedulers'
	// logs; the controller works from mi.
	Model   string
	SLO     time.Duration
	Arrival simclock.Time // at the controller

	// Priority, Tenant and MaxBatch mirror the SubmitSpec fields.
	Priority int
	Tenant   string
	MaxBatch int

	InputBytes  int64
	OutputBytes int64

	// responder receives the outcome exactly once (see Responder).
	responder Responder

	// ---- scheduler-internal state ----
	// mi is the registry entry whose queue holds (or held) the request;
	// adoption after a migration re-points it along with ctl.
	mi        *ModelInfo
	state     requestState
	deadline  simclock.Time
	coldStart bool
	execEst   time.Duration // batch-1 estimate at arrival (demand accounting)
	// ctl is the controller currently owning the request (retargeted on
	// migration); cancelTmr is the armed admission/deadline timer. Both
	// serve Run below.
	ctl       *Controller
	cancelTmr simclock.Timer
	// gen guards recycling (mirroring simclock.Timer's generation
	// guard): releaseRequest bumps it, so a stale external reference —
	// a client Handle that outlived its request — can prove staleness
	// with CancelRequestGen instead of acting on the recycled successor.
	gen uint64
}

// Responder receives a request's terminal outcome at the controller.
// The cluster's pooled per-submission struct implements it and wires the
// outcome back over the client's network link, so the response path
// carries no per-request func value.
type Responder interface {
	Respond(Response)
}

// Gen returns the request's recycling generation. Capture it alongside
// the pointer when retaining a request past the submitting call; pass
// both to CancelRequestGen.
func (r *Request) Gen() uint64 { return r.gen }

// Run implements simclock.Runner: the request doubles as its own timer
// event. While queued the armed timer is the §4.1 admission cancel
// (fired at the last instant a batch-1 warm execution could still meet
// the deadline); once in flight it is the deadline timeout. Dispatching
// on state here lets both timers share one preallocated receiver — the
// request itself — so the per-request hot path arms timers without
// allocating a closure per arm.
func (r *Request) Run() {
	c := r.ctl
	if c == nil {
		return
	}
	switch r.state {
	case stateQueued:
		c.cancelRequest(r.mi, r)
		if r.state == stateDone {
			// The timer was the last engine-side reference; client
			// handles hold a generation and survive the recycle.
			c.releaseRequest(r)
		}
	case stateInFlight:
		// Answered at the deadline, but the in-flight action still lists
		// this request in pendingInfers — its result (or FailWorker)
		// recycles it.
		c.timeoutRequest(r)
	}
}

// ModelInfo returns the registry entry of the model the request targets
// — what a scheduler's OnRequest needs, without looking Model up.
func (r *Request) ModelInfo() *ModelInfo { return r.mi }

type requestState uint8

// stateFree is deliberately the zero value: a recycled Request in the
// free list (or a freshly zeroed one) matches no lifecycle check, so a
// stale CancelRequest on a recycled object is a structural no-op.
const (
	stateFree requestState = iota
	stateQueued
	stateInFlight
	stateDone
)

// Response is the terminal outcome of a request.
type Response struct {
	RequestID uint64
	Model     string
	// id is Model's dense ID, for the routing layer and the per-model
	// metrics (zero only when a bare controller rejects an unknown name).
	id      ModelID
	Tenant  string
	Success bool
	// Reason is ReasonNone on success; see the Reason constants for the
	// failure taxonomy.
	Reason Reason
	// Batch is the batch size the request executed in (success only).
	Batch int
	// ColdStart reports whether the model was not GPU-resident anywhere
	// when the request arrived.
	ColdStart bool
	// CompletedAt is the controller-side completion instant.
	CompletedAt simclock.Time
}

// String implements fmt.Stringer.
func (r Response) String() string {
	if r.Success {
		return fmt.Sprintf("response{#%d %s ok b%d}", r.RequestID, r.Model, r.Batch)
	}
	return fmt.Sprintf("response{#%d %s failed:%s}", r.RequestID, r.Model, r.Reason)
}
