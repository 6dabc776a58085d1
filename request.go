package clockwork

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

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
	ErrNoSuchShard    = core.ErrNoSuchShard
)

// Request describes one inference submission. Model and SLO are
// required; the remaining fields are optional per-request choices the
// controller folds into its global plan (the paper's thesis: every
// performance-relevant choice is consolidated centrally — this struct
// is how clients state theirs).
type Request struct {
	// Model is the registered instance name to serve.
	Model string
	// SLO is the end-to-end latency objective for this request.
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
	// OnResult, if non-nil, is invoked exactly once with the final
	// outcome, before SubmitRequest's onDone argument (both may be set;
	// both fire). Like every completion callback it runs on the engine
	// goroutine — in live mode keep it short and non-blocking, and hand
	// heavy work to another goroutine. Prefer Handle.Wait when a
	// goroutine just needs to block until completion.
	OnResult func(Result)
}

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
	// Latency is the end-to-end client-observed latency.
	Latency time.Duration
	// Batch is the batch size the request executed in.
	Batch int
	// ColdStart reports whether the model was not GPU-resident when the
	// request arrived.
	ColdStart bool
}

// ErrHandleReleased is returned by Handle.Wait on a handle that was
// released (or never initialised): the underlying slot may already
// belong to another request, so there is nothing to wait for.
var ErrHandleReleased = errors.New("clockwork: handle released")

// Handle tracks one submitted request from the client side. In
// simulation mode, inspect or cancel between Run calls. In live mode
// (see System.StartLive), Done, Outcome, ID and Wait are safe from any
// goroutine; Cancel must run engine-side (inside Live.Do, or a closure
// injected onto the owning shard).
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
	resp, latency, done := h.h.Outcome()
	if !done {
		return Result{}, false
	}
	return resultOf(resp, latency), true
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
	resp, latency, err := h.h.Wait(ctx)
	if err != nil {
		return Result{}, err
	}
	return resultOf(resp, latency), nil
}

// Cancel requests cancellation and reports whether it took effect:
// still-queued requests cancel immediately, in-transit requests cancel
// deterministically on arrival at the controller. Only a request
// already handed to a worker cannot be clawed back (§4.2); then Cancel
// reports false, and so does a cancel on a released handle.
func (h Handle) Cancel() bool {
	return h.valid() && h.h.Cancel()
}

func resultOf(r core.Response, l time.Duration) Result {
	return Result{
		RequestID: r.RequestID,
		Model:     r.Model,
		Tenant:    r.Tenant,
		Success:   r.Success,
		Reason:    r.Reason,
		Latency:   l,
		Batch:     r.Batch,
		ColdStart: r.ColdStart,
	}
}

// SubmitRequest issues an inference request with full per-request
// options and returns a client-side handle. onDone (may be nil) runs
// when the response reaches the client, after req.OnResult. Unknown
// models and malformed specs are typed errors (ErrUnknownModel,
// ErrInvalidRequest). On a Config.EnginePerShard system the caller must
// be on the model's owning shard's engine goroutine (Live.InjectOn with
// the shard from OwnerShard); from any other shard, use
// SubmitRequestSink.
func (s *System) SubmitRequest(req Request, onDone func(Result)) (Handle, error) {
	shard := 0
	if s.cluster.EnginePerShard() {
		shard, _ = s.cluster.OwnerShardHint(req.Model)
	}
	h := core.NewHandle(lowerResult(req.OnResult, onDone, nil))
	if err := s.cluster.Submit(shard, req.spec(), h); err != nil {
		return Handle{}, err
	}
	return Handle{h: h, gen: h.Gen()}, nil
}

// ResultSink receives a request's final outcome — the interface-shaped
// alternative to the OnResult callback for callers that pool their
// per-request state. OnResult runs on the engine goroutine, exactly once
// per accepted submission; keep it short and non-blocking.
type ResultSink interface {
	OnResult(Result)
}

// SubmitRequestSink is the fire-and-forget submission path: no Handle is
// minted (nothing to Wait on, nothing to Release), and the outcome is
// delivered to sink's OnResult exactly once. shard is the shard whose
// engine the caller is on: with Config.EnginePerShard the caller must be
// on that engine goroutine, and a shard that does not own the model
// forwards the request to its owner, costing one extra hop; on a
// single-engine system the shard is range-checked and otherwise ignored.
// Out-of-range shards are ErrNoSuchShard. req.OnResult must be nil — the
// sink IS the completion callback (ErrInvalidRequest otherwise). This is
// the serving path for callers that keep per-request state in pools of
// their own: nothing is allocated per request on the way down.
func (s *System) SubmitRequestSink(shard int, req Request, sink ResultSink) error {
	if req.OnResult != nil {
		return fmt.Errorf("%w: SubmitRequestSink with both OnResult and a sink", ErrInvalidRequest)
	}
	return s.cluster.Submit(shard, req.spec(), lowerResult(nil, nil, sink))
}

// spec translates the public request into the core submission spec.
func (req Request) spec() core.SubmitSpec {
	return core.SubmitSpec{
		Model:    req.Model,
		SLO:      req.SLO,
		Priority: req.Priority,
		Tenant:   req.Tenant,
		MaxBatch: req.MaxBatchSize,
	}
}

// resultLower adapts the public completion forms to the core
// ResponseSink: Request.OnResult fires first, then SubmitRequest's
// onDone, then SubmitRequestSink's sink. It recycles itself through a
// pool the moment the response fires, so lowering allocates nothing per
// request in steady state.
type resultLower struct {
	onResult, onDone func(Result)
	sink             ResultSink
}

var resultLowerPool = sync.Pool{New: func() any { return new(resultLower) }}

// lowerResult returns a pooled adapter for the given completions, or nil
// when there is nothing to notify.
func lowerResult(onResult, onDone func(Result), sink ResultSink) core.ResponseSink {
	if onResult == nil && onDone == nil && sink == nil {
		return nil
	}
	b := resultLowerPool.Get().(*resultLower)
	b.onResult, b.onDone, b.sink = onResult, onDone, sink
	return b
}

func (b *resultLower) OnResponse(r core.Response, l time.Duration) {
	onResult, onDone, sink := b.onResult, b.onDone, b.sink
	*b = resultLower{}
	resultLowerPool.Put(b)
	res := resultOf(r, l)
	if onResult != nil {
		onResult(res)
	}
	if onDone != nil {
		onDone(res)
	}
	if sink != nil {
		sink.OnResult(res)
	}
}
