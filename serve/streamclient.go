package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clockwork"
	"clockwork/serve/stream"
)

// StreamOptions configures a StreamClient.
type StreamOptions struct {
	// Conns is how many TCP connections to multiplex requests over
	// (round-robin). One connection already carries any number of
	// in-flight requests; more connections spread the encode/decode
	// work across server reader goroutines. Default 1.
	Conns int
	// DialTimeout bounds each dial (default 5s).
	DialTimeout time.Duration
}

// StreamClient is the fast-path client of a clockworkd server: the
// same Request/Result contract as Client (including the typed error
// taxonomy — errors.Is against clockwork.ErrUnknownModel etc. works
// identically), spoken over the binary stream transport instead of
// HTTP/JSON. Many goroutines may call Infer concurrently; requests are
// multiplexed over the configured connections and correlated by ID,
// and SubmitBatch pipelines a whole batch through one write.
//
// There is no dedicated reader goroutine: waiters elect one of
// themselves to read the socket and dispatch responses (the token
// passes when the elected reader's own call completes). A sequential
// caller therefore reads its own response directly — no goroutine
// handoff on the critical path.
type StreamClient struct {
	conns []*clientStream
	next  atomic.Uint64
}

// DialStream connects to a clockworkd stream listener ("host:port").
func DialStream(addr string, opts StreamOptions) (*StreamClient, error) {
	n := opts.Conns
	if n <= 0 {
		n = 1
	}
	timeout := opts.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	c := &StreamClient{conns: make([]*clientStream, 0, n)}
	for i := 0; i < n; i++ {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("serve: dialing stream %s: %w", addr, err)
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		c.conns = append(c.conns, newClientStream(nc))
	}
	return c, nil
}

// Close closes every connection. In-flight calls fail with
// ErrStreamClosed.
func (c *StreamClient) Close() error {
	for _, cs := range c.conns {
		cs.fail(ErrStreamClosed)
	}
	return nil
}

func (c *StreamClient) pick() *clientStream {
	return c.conns[c.next.Add(1)%uint64(len(c.conns))]
}

// Infer submits one inference over the stream and blocks until its
// outcome returns. A ctx cancellation abandons the wait, not the
// request: the server still runs it to its outcome.
func (c *StreamClient) Infer(ctx context.Context, req clockwork.Request) (clockwork.Result, error) {
	cs := c.pick()
	call, corr, err := cs.start(req.Model, req.Tenant)
	if err != nil {
		return clockwork.Result{}, err
	}
	if err := cs.writeInfer(corr, &req); err != nil {
		cs.abandon(corr)
		return clockwork.Result{}, err
	}
	return cs.await(ctx, call, corr)
}

// BatchOutcome is one request's outcome within a SubmitBatch.
type BatchOutcome struct {
	Result clockwork.Result
	Err    error
}

// SubmitBatch pipelines a batch of requests through one connection in
// one coalesced write and waits for all their outcomes. Outcomes are
// positional: out[i] answers reqs[i]. The call-level error is nil
// unless the transport itself failed before any request was written.
func (c *StreamClient) SubmitBatch(ctx context.Context, reqs []clockwork.Request) ([]BatchOutcome, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	cs := c.pick()
	calls := make([]*streamCall, len(reqs))
	corrs := make([]uint64, len(reqs))
	for i, req := range reqs {
		call, corr, err := cs.start(req.Model, req.Tenant)
		if err != nil {
			for j := 0; j < i; j++ {
				cs.abandon(corrs[j])
			}
			return nil, err
		}
		calls[i], corrs[i] = call, corr
	}
	cs.wmu.Lock()
	var werr error
	for i, req := range reqs {
		if werr = cs.enc.Infer(&stream.InferFrame{
			Corr:     corrs[i],
			SLO:      int64(req.SLO),
			Priority: int64(req.Priority),
			MaxBatch: int64(req.MaxBatchSize),
			Model:    req.Model,
			Tenant:   req.Tenant,
		}); werr != nil {
			break
		}
	}
	if werr == nil {
		werr = cs.enc.Flush()
	}
	cs.wmu.Unlock()
	if werr != nil {
		for _, corr := range corrs {
			cs.abandon(corr)
		}
		return nil, fmt.Errorf("%w: %v", ErrStreamClosed, werr)
	}
	out := make([]BatchOutcome, len(reqs))
	for i := range calls {
		out[i].Result, out[i].Err = cs.await(ctx, calls[i], corrs[i])
	}
	return out, nil
}

// Models lists the registered instance names over the stream.
func (c *StreamClient) Models(ctx context.Context) ([]string, error) {
	cs := c.pick()
	call, corr, err := cs.start("", "")
	if err != nil {
		return nil, err
	}
	cs.wmu.Lock()
	werr := cs.enc.Models(corr)
	if werr == nil {
		werr = cs.enc.Flush()
	}
	cs.wmu.Unlock()
	if werr != nil {
		cs.abandon(corr)
		return nil, fmt.Errorf("%w: %v", ErrStreamClosed, werr)
	}
	if _, err := cs.await(ctx, call, corr); err != nil {
		return nil, err
	}
	// await pools the call only on the result path; Models outcomes
	// carry their payload in call.models and are not pooled.
	models := call.models
	callPool.Put(call)
	return models, nil
}

// ---- connection internals ----

// streamCall is one in-flight correlated exchange. The done channel
// has capacity 1 and is signalled by send (not close), so pooled calls
// can be reused once their waiter has drained the signal. A call
// abandoned mid-delivery is NOT pooled — the dispatching reader may
// still be writing to it.
type streamCall struct {
	done    chan struct{}
	model   string
	tenant  string
	res     clockwork.Result
	err     error
	models  []string
	hasList bool
}

var callPool = sync.Pool{
	New: func() any { return &streamCall{done: make(chan struct{}, 1)} },
}

type clientStream struct {
	c   net.Conn
	enc *stream.Encoder
	wmu sync.Mutex // serialises encode+flush

	// readSem is the reader-election token (capacity 1): whoever can
	// send into it owns the decoder and the socket's read side until
	// they release it. dec is only touched by the token holder.
	readSem chan struct{}
	dec     *stream.Decoder

	pmu     sync.Mutex
	pending map[uint64]*streamCall
	corr    uint64
	dead    error // set once the conn fails; start refuses thereafter
}

func newClientStream(c net.Conn) *clientStream {
	return &clientStream{
		c:       c,
		enc:     stream.NewEncoder(c),
		readSem: make(chan struct{}, 1),
		dec:     stream.NewDecoder(c),
		pending: make(map[uint64]*streamCall),
	}
}

// start registers a new correlated call.
func (cs *clientStream) start(model, tenant string) (*streamCall, uint64, error) {
	call := callPool.Get().(*streamCall)
	call.model, call.tenant = model, tenant
	call.res, call.err = clockwork.Result{}, nil
	call.models, call.hasList = nil, false
	cs.pmu.Lock()
	if cs.dead != nil {
		err := cs.dead
		cs.pmu.Unlock()
		callPool.Put(call)
		return nil, 0, fmt.Errorf("%w: %v", ErrStreamClosed, err)
	}
	cs.corr++
	corr := cs.corr
	cs.pending[corr] = call
	cs.pmu.Unlock()
	return call, corr, nil
}

func (cs *clientStream) writeInfer(corr uint64, req *clockwork.Request) error {
	cs.wmu.Lock()
	err := cs.enc.Infer(&stream.InferFrame{
		Corr:     corr,
		SLO:      int64(req.SLO),
		Priority: int64(req.Priority),
		MaxBatch: int64(req.MaxBatchSize),
		Model:    req.Model,
		Tenant:   req.Tenant,
	})
	if err == nil {
		err = cs.enc.Flush()
	}
	cs.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStreamClosed, err)
	}
	return nil
}

// await blocks for the call's outcome, serving as the connection's
// reader whenever the token is free: it reads frames and dispatches
// them (to itself or to other waiters) until its own outcome lands.
// On success the call returns to the pool; on ctx cancellation it is
// deregistered (and pooled only if no reader had claimed it).
func (cs *clientStream) await(ctx context.Context, call *streamCall, corr uint64) (clockwork.Result, error) {
	if done := ctx.Done(); done != nil {
		stop := context.AfterFunc(ctx, func() {
			// Abort whoever is blocked reading (possibly this goroutine)
			// so the cancelled waiter can leave; readers treat the
			// timeout as a retry signal, not a connection failure.
			_ = cs.c.SetReadDeadline(time.Now())
		})
		defer stop()
	}
	for {
		select {
		case <-call.done:
			res, err := call.res, call.err
			if !call.hasList {
				callPool.Put(call)
			}
			return res, err
		case <-ctx.Done():
			cs.abandon(corr)
			return clockwork.Result{}, ctx.Err()
		case cs.readSem <- struct{}{}:
			// Elected reader. The outcome may have landed between the
			// last check and the election — look again before blocking
			// on the socket.
			select {
			case <-call.done:
				<-cs.readSem
				res, err := call.res, call.err
				if !call.hasList {
					callPool.Put(call)
				}
				return res, err
			default:
			}
			err := cs.readFrame()
			<-cs.readSem
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					// A waiter's ctx fired a read-deadline poke; clear it
					// and re-loop (our own ctx case handles our exit).
					_ = cs.c.SetReadDeadline(time.Time{})
					continue
				}
				cs.fail(err)
			}
		}
	}
}

// abandon deregisters corr after a write failure or ctx cancellation.
// If a reader already claimed the call, it is left to the garbage
// collector — pooling it would race the delivery.
func (cs *clientStream) abandon(corr uint64) {
	cs.pmu.Lock()
	call, ok := cs.pending[corr]
	if ok {
		delete(cs.pending, corr)
	}
	cs.pmu.Unlock()
	if ok {
		// Drain a delivery that slipped in between claim and now.
		select {
		case <-call.done:
		default:
		}
		callPool.Put(call)
	}
}

// take claims the call registered under corr, if any.
func (cs *clientStream) take(corr uint64) *streamCall {
	cs.pmu.Lock()
	call, ok := cs.pending[corr]
	if ok {
		delete(cs.pending, corr)
	}
	cs.pmu.Unlock()
	if !ok {
		return nil
	}
	return call
}

// readFrame reads and dispatches exactly one frame. Caller must hold
// the read token.
func (cs *clientStream) readFrame() error {
	typ, p, err := cs.dec.Next()
	if err != nil {
		return err
	}
	switch typ {
	case stream.TypeResult:
		var f stream.ResultFrame
		if err := stream.DecodeResult(p, &f); err != nil {
			return err
		}
		if call := cs.take(f.Corr); call != nil {
			call.res = clockwork.Result{
				RequestID: f.RequestID,
				Model:     call.model,
				Tenant:    call.tenant,
				Success:   f.Success,
				Reason:    clockwork.Reason(f.Reason),
				Latency:   time.Duration(f.Latency),
				Batch:     int(f.Batch),
				ColdStart: f.ColdStart,
			}
			call.done <- struct{}{}
		}
		return nil
	case stream.TypeError:
		var f stream.ErrorFrame
		if err := stream.DecodeError(p, &f); err != nil {
			return err
		}
		if call := cs.take(f.Corr); call != nil {
			status, code := wireToCode(f.Code)
			call.err = &APIError{Status: status, Code: code, Message: f.Message}
			call.done <- struct{}{}
		}
		return nil
	case stream.TypeModelList:
		var f stream.ModelListFrame
		if err := cs.dec.DecodeModelList(p, &f); err != nil {
			return err
		}
		if call := cs.take(f.Corr); call != nil {
			call.models = append([]string(nil), f.Models...)
			call.hasList = true
			call.done <- struct{}{}
		}
		return nil
	default:
		return stream.ErrUnknownFrameType
	}
}

// fail marks the connection dead, fails every pending call with a
// typed transport error, and closes the socket. Idempotent.
func (cs *clientStream) fail(cause error) {
	cs.pmu.Lock()
	if cs.dead == nil {
		cs.dead = cause
	}
	pending := cs.pending
	cs.pending = make(map[uint64]*streamCall)
	cs.pmu.Unlock()
	for _, call := range pending {
		call.err = fmt.Errorf("%w: %v", ErrStreamClosed, cause)
		call.done <- struct{}{}
	}
	cs.c.Close()
}
