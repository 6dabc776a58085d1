package clockwork

import (
	"context"
	"errors"

	"clockwork/internal/core"
)

// Reason classifies why a request did not succeed; ReasonNone means it
// did. It replaces the magic strings "cancelled"/"rejected"/"timeout"
// of the first API: String() still renders those words, so printed
// output is unchanged, but callers now switch on constants.
type Reason = core.Reason

// The failure taxonomy, from earliest to latest point of failure.
const (
	// ReasonNone: the request succeeded.
	ReasonNone = core.ReasonNone
	// ReasonCancelled: admission control determined the SLO unmeetable
	// and rejected the request in advance (§4.1), or the client
	// cancelled it via Handle.Cancel while it was still queued.
	ReasonCancelled = core.ReasonCancelled
	// ReasonRejected: a worker could not honour the schedule (a timing
	// misprediction) and cancelled the action.
	ReasonRejected = core.ReasonRejected
	// ReasonTimeout: the deadline passed while the request was in
	// flight; the client learns of the failure at the deadline.
	ReasonTimeout = core.ReasonTimeout
	// ReasonWorkerFailed: the executing worker was failed via
	// FailWorker; its in-flight work is lost.
	ReasonWorkerFailed = core.ReasonWorkerFailed
	// ReasonUnregistered: the model was unregistered while the request
	// was in transit or queued.
	ReasonUnregistered = core.ReasonUnregistered
)

// Typed errors returned by the public API; match with errors.Is.
var (
	ErrUnknownModel   = core.ErrUnknownModel
	ErrDuplicateModel = core.ErrDuplicateModel
	ErrModelBusy      = core.ErrModelBusy
	ErrUnknownPolicy  = core.ErrUnknownPolicy
	ErrNoSuchWorker   = core.ErrNoSuchWorker
	ErrWorkerDown     = core.ErrWorkerDown
	ErrInvalidRequest = core.ErrInvalidRequest
)

// Request describes one inference submission. Model and SLO are
// required; the remaining fields are optional per-request choices the
// controller folds into its global plan.
type Request = core.SubmitSpec

// Result is the client-observed outcome of one inference request.
type Result = core.Result

// ErrHandleReleased is returned by Handle.Wait on a handle that was
// released (or never initialised): the underlying slot may already
// belong to another request, so there is nothing to wait for.
var ErrHandleReleased = errors.New("clockwork: handle released")

// Handle tracks one submitted request from the client side. In
// simulation mode, inspect or cancel between Run calls. In live mode
// (see System.StartLive), Done, Outcome, ID and Wait are safe from any
// goroutine; Cancel must run engine-side (inside Live.Do, or an
// injected closure).
//
// Handle is a small value: copy it freely, there is no per-handle
// allocation. The underlying slot recycles through a pool when Release
// is called; the captured generation makes every method on a stale copy
// (one that outlived its Release) a deterministic no-op instead of an
// accidental observation of the slot's next occupant. The zero Handle
// is valid and behaves like a released one.
type Handle struct {
	h *core.Handle
	// gen is the slot's generation when this handle was minted; a
	// mismatch later proves the slot was recycled.
	gen uint64
}

// valid reports whether the handle still refers to its own request.
func (h Handle) valid() bool { return h.h != nil && h.h.Gen() == h.gen }

// Release returns the handle's underlying slot to the pool. Call it
// when no goroutine will use this handle (or any copy of it) again —
// after Wait has returned, typically. Releasing a zero or already-
// released handle is a no-op; methods on surviving copies become
// deterministic no-ops.
func (h Handle) Release() {
	if h.valid() {
		h.h.Release()
	}
}

// ID returns the controller-assigned request ID (0 while the request is
// still in transit to the controller, or after Release).
func (h Handle) ID() uint64 {
	if !h.valid() {
		return 0
	}
	return h.h.ID()
}

// Done reports whether the request has reached a final outcome (false
// after Release).
func (h Handle) Done() bool {
	return h.valid() && h.h.Done()
}

// Outcome returns the final result; ok is false while pending and after
// Release.
func (h Handle) Outcome() (Result, bool) {
	if !h.valid() {
		return Result{}, false
	}
	return h.h.Outcome()
}

// Wait blocks until the request reaches a final outcome or ctx is
// cancelled — the completion-notification primitive that replaces
// busy-polling Done. Something else must be advancing the clock: the
// driver started with System.StartLive, or (in tests) another
// goroutine calling RunFor. A ctx cancellation abandons the wait, not
// the request: the request still runs to its normal outcome. Waiting on
// a released (or zero) handle returns ErrHandleReleased immediately.
func (h Handle) Wait(ctx context.Context) (Result, error) {
	if !h.valid() {
		return Result{}, ErrHandleReleased
	}
	return h.h.Wait(ctx)
}

// Cancel requests cancellation and reports whether it took effect:
// still-queued requests cancel immediately, in-transit requests cancel
// deterministically on arrival at the controller. Only a request
// already handed to a worker cannot be clawed back (§4.2); then Cancel
// reports false, and so does a cancel on a released handle.
func (h Handle) Cancel() bool {
	return h.valid() && h.h.Cancel()
}

// SubmitRequest issues an inference request with full per-request
// options and returns a client-side handle. onDone (may be nil) runs
// exactly once with the final outcome when the response reaches the
// client. Like every completion callback it runs on the engine
// goroutine — in live mode keep it short and non-blocking, and hand
// heavy work to another goroutine; prefer Handle.Wait when a goroutine
// just needs to block until completion. Unknown models and malformed
// specs are typed errors (ErrUnknownModel, ErrInvalidRequest).
func (s *System) SubmitRequest(req Request, onDone func(Result)) (Handle, error) {
	var sink ResultSink
	if onDone != nil {
		sink = core.ResultFunc(onDone)
	}
	h := core.NewHandle(sink)
	if err := s.cluster.Submit(req, h); err != nil {
		return Handle{}, err
	}
	return Handle{h: h, gen: h.Gen()}, nil
}

// ResultSink receives a request's final outcome — the interface-shaped
// alternative to SubmitRequest's onDone callback for callers that pool
// their per-request state. OnResult runs on the engine goroutine, exactly once
// per accepted submission; keep it short and non-blocking.
type ResultSink = core.ResultSink

// SubmitRequestSink is the fire-and-forget submission path: no Handle is
// minted (nothing to Wait on, nothing to Release), and the outcome is
// delivered to sink's OnResult exactly once. shard is ignored: one
// controller serves every placement group. This is the serving path for callers that keep per-request
// state in pools of their own: nothing is allocated per request on the
// way down.
func (s *System) SubmitRequestSink(shard int, req Request, sink ResultSink) error {
	return s.cluster.Submit(req, sink)
}
