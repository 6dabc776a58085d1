package serve

import (
	"sync"

	"clockwork"
)

// The per-request state machine both front doors share. A transport
// decodes a request, admits it (Server.admit) and wraps it in an
// inflight record; from there the lifecycle is one code path whichever
// transport decoded it:
//
//	admit → injectOn (journal Infer, SubmitRequestSink) → finish → release
//
// finish runs exactly once per record, for whichever outcome comes: the
// engine's result (OnResult), a typed refusal from the submit call, or
// an abort (the driver stopped before the injection ran, or a stream
// reader died before injecting). It journals the ack, hands the outcome
// to the record's transport — the externalize step, the one place
// besides decoding where the transports differ — and releases the
// admission slot. The slot is therefore held until the outcome exists,
// not until a handler returns or a connection closes, so the in-flight
// window means what it says even when the client is gone.

// externalizer is the transport end of a record: where its outcome
// leaves the server. The HTTP handler's inferCall and the stream
// transport's streamConn implement it.
type externalizer interface {
	// externalize hands over the outcome — res when err is nil, else the
	// refusal — on the engine turn (or the aborting goroutine), before
	// the admission slot is released.
	externalize(it *inflight, res clockwork.Result, err error)
}

// inflight is one admitted request's server-side record, pooled, and
// the package's only clockwork.ResultSink.
type inflight struct {
	s     *Server
	out   externalizer
	corr  uint64 // client correlation ID (the stream frame's; 0 over HTTP)
	jcorr uint64 // journal correlation (0 when not recording)
	shard int
	req   clockwork.Request
}

var inflightPool = sync.Pool{New: func() any { return new(inflight) }}

// newInflight records an admitted request, bound for the engine shard
// owning its model.
func (s *Server) newInflight(out externalizer, corr uint64, req clockwork.Request) *inflight {
	it := inflightPool.Get().(*inflight)
	*it = inflight{s: s, out: out, corr: corr, shard: s.ownerShard(req.Model), req: req}
	return it
}

// OnResult implements clockwork.ResultSink: the engine's outcome.
func (it *inflight) OnResult(res clockwork.Result) { it.finish(res, nil) }

// finish is the record's one exit. The ack is buffered before the
// outcome can reach the transport, and each transport flushes the
// journal (the group-commit barrier) before a result reaches the wire:
// no acknowledged request is lost to a crash.
func (it *inflight) finish(res clockwork.Result, err error) {
	s := it.s
	if err == nil && s.rec != nil {
		s.rec.Ack(it.jcorr, res)
	}
	it.out.externalize(it, res, err)
	*it = inflight{}
	inflightPool.Put(it)
	s.release()
}

// ownerShard picks the engine shard to inject a submission on: the
// model's owner per the lock-free routing hint when the system runs one
// engine per shard, shard 0 otherwise. An unregistered model maps to
// shard 0, whose controller answers ErrUnknownModel.
func (s *Server) ownerShard(model string) int {
	if !s.live.MultiEngine() {
		return 0
	}
	if shard, ok := s.sys.OwnerShard(model); ok {
		return shard
	}
	return 0
}

// batch is one engine turn's worth of records on one shard: an HTTP
// request is a batch of one, a stream reader's coalesced frames up to
// maxStreamBatch. Pooled with its injection hooks prebuilt, so an
// injection allocates nothing; ownership passes to the injected turn,
// which returns it to the pool. A batch is never injected empty.
type batch struct {
	its          []*inflight
	runF, abortF func()
}

var batchPool = sync.Pool{New: func() any { return &batch{its: make([]*inflight, 0, maxStreamBatch)} }}

func getBatch() *batch { return batchPool.Get().(*batch) }

// injectOn hands b to shard's engine as one injected turn: however many
// records it carries, the engine wakes once and the driver pays one
// turn. Exactly one of run and abort fires, even across a racing Stop,
// so every record reaches finish.
func (s *Server) injectOn(shard int, b *batch) {
	if b.runF == nil { // a new batch: build the hooks it keeps for life
		b.runF = b.run
		b.abortF = func() { b.fail(clockwork.ErrLiveStopped) }
	}
	s.live.InjectOrAbortOn(shard, b.runF, b.abortF)
}

// run is the engine turn. Each request gets one journal record, all
// stamped with this turn's engine step — replay regroups them into one
// injection by that shared stamp — and the records buffer until the
// Commit: one write(2) per turn.
func (b *batch) run() {
	s := b.its[0].s
	for _, it := range b.its {
		if s.rec != nil {
			it.jcorr = s.rec.Infer(it.shard, it.req.Model, it.req.SLO, it.req.Priority, it.req.Tenant, it.req.MaxBatchSize)
		}
		if err := s.sys.SubmitRequestSink(it.shard, it.req, it); err != nil {
			it.finish(clockwork.Result{}, err)
		}
	}
	if s.rec != nil {
		s.rec.Commit()
	}
	b.free()
}

// fail finishes every record with err and recycles b: the abort of a
// turn that will never run, or a stream reader's batch it never
// injected.
func (b *batch) fail(err error) {
	for _, it := range b.its {
		it.finish(clockwork.Result{}, err)
	}
	b.free()
}

// free empties b — a batch back in the pool must carry no records, or
// a later injection would submit them again — and returns it.
func (b *batch) free() {
	clear(b.its)
	b.its = b.its[:0]
	batchPool.Put(b)
}
