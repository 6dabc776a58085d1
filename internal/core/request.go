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

// SubmitSpec describes one inference submission; the public package
// names it Request. Model and SLO are required; the remaining fields are
// optional per-request choices the controller folds into its global plan
// (the paper's thesis: every performance-relevant choice is consolidated
// centrally — this struct is how clients state theirs).
type SubmitSpec struct {
	// Model is the registered instance name to serve.
	Model string
	// SLO is the end-to-end latency objective for this request; the
	// controller derives the request's internal deadline from it.
	SLO time.Duration
	// Priority orders requests within a model's queue: higher values
	// are served first, FIFO within a level. Default 0.
	Priority int
	// Tenant labels the request for per-tenant accounting (see
	// TenantStats). Optional.
	Tenant string
	// MaxBatchSize, if > 0, caps the batch this request may execute in
	// (1 forces solo execution).
	MaxBatchSize int

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

	// Priority, Tenant and MaxBatch mirror the SubmitSpec fields
	// (MaxBatch is SubmitSpec.MaxBatchSize).
	Priority int
	Tenant   string
	MaxBatch int

	InputBytes  int64
	OutputBytes int64

	// responder receives the outcome exactly once (see Responder).
	responder Responder

	// ---- scheduler-internal state ----
	// mi is the registry entry whose queue holds (or held) the request.
	mi        *ModelInfo
	state     requestState
	deadline  simclock.Time
	coldStart bool
	execEst   time.Duration // batch-1 estimate at arrival (demand accounting)
	// cancelTmr is the armed admission/deadline timer (see Run).
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
	Respond(Result)
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
	if r.mi == nil {
		return
	}
	c := r.mi.owner
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

// Result is the client-observed outcome of one inference request.
type Result struct {
	// RequestID is the controller-assigned request identifier.
	RequestID uint64
	// Model and Tenant echo the submission, for shared callbacks.
	Model  string
	Tenant string
	// Success reports whether the inference executed and returned.
	Success bool
	// Reason is ReasonNone on success; otherwise it explains the
	// failure (see the Reason constants).
	Reason Reason
	// Latency is the end-to-end client-observed latency, stamped when
	// the response reaches the client (zero while it is still at the
	// controller).
	Latency time.Duration
	// Batch is the batch size the request executed in.
	Batch int
	// ColdStart reports whether the model was not GPU-resident when the
	// request arrived.
	ColdStart bool

	// id is Model's dense ID, for the routing layer and the per-model
	// metrics (zero only when a bare controller rejects an unknown name).
	id ModelID
}

// String implements fmt.Stringer.
func (r Result) String() string {
	if r.Success {
		return fmt.Sprintf("response{#%d %s ok b%d}", r.RequestID, r.Model, r.Batch)
	}
	return fmt.Sprintf("response{#%d %s failed:%s}", r.RequestID, r.Model, r.Reason)
}
