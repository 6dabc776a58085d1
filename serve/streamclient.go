package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"clockwork"
	"clockwork/serve/stream"
)

// StreamOptions configures a StreamClient.
type StreamOptions struct {
	// Conns is how many TCP connections to multiplex requests over.
	// One connection already carries any number of in-flight requests;
	// more connections spread the encode/decode work across server
	// reader goroutines. Default 1.
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
// and SubmitBatch pipelines a whole batch through one write. Each call
// goes to the live connection with the fewest calls in flight.
//
// There is no dedicated reader goroutine: waiters elect one of
// themselves to read the socket and dispatch responses. The elected
// reader dispatches every whole frame one read brought in, and the
// token passes when its own call completes. A sequential caller
// therefore reads its own response directly — no goroutine handoff on
// the critical path. A caller whose ctx ends leaves at once; only the
// reader's own ctx interrupts the socket read.
//
// Nor is there a writer goroutine: writes are group-committed. Callers
// encode into a per-connection buffer, and one of them at a time
// writes everything buffered in a single write; a caller whose frames
// that flusher will carry returns without a syscall. A caller that
// would flush while callers woken by the last read have not yet run
// yields once first, so the requests one read's responses provoke
// share one write.
// A failed write fails the connection: every pending call gets
// ErrStreamClosed.
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

// pick returns the live connection with the fewest registered calls;
// ties rotate, so a sequential caller alternates connections. A reader
// takes the calls it dispatches off its connection at once, so the
// callers one read wakes find that connection least loaded and their
// next requests share its next write. Only when every connection has
// failed does pick return a dead one, whose start refuses the call.
func (c *StreamClient) pick() *clientStream {
	n := uint64(len(c.conns))
	first := c.next.Add(1)
	best := c.conns[first%n]
	least := int64(math.MaxInt64)
	for i := uint64(0); i < n; i++ {
		cs := c.conns[(first+i)%n]
		if l := cs.calls.Load(); l < least && !cs.failed.Load() {
			best, least = cs, l
		}
	}
	return best
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
	if err := cs.writeInfers([]uint64{corr}, []clockwork.Request{req}); err != nil {
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
// unless no request was sent: the connection was already closed, or a
// frame would not encode. A write that fails later reaches each
// outcome as ErrStreamClosed.
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
	if err := cs.writeInfers(corrs, reqs); err != nil {
		for _, corr := range corrs {
			cs.abandon(corr)
		}
		return nil, err
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
	if err := cs.send(func(enc *stream.Encoder) error { return enc.Models(corr) }); err != nil {
		cs.abandon(corr)
		return nil, err
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
// can be reused once their waiter has drained the signal. A waiter
// that abandons a call a reader has already claimed drains the delivery
// before pooling it.
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
	c net.Conn

	// Group commit. Callers encode under wmu into out; one flusher at a
	// time swaps out for spare and writes it outside the lock, looping
	// until out is empty, so a caller that finds flushing set returns
	// without a syscall.
	wmu      sync.Mutex
	enc      *stream.Encoder // writes into out
	out      commitBuf
	spare    []byte
	flushing bool

	// uncollected counts outcomes delivered to calls whose waiters have
	// not yet taken them: the callers one read just woke. A caller that
	// would flush while it is above zero yields once, so their frames
	// can join one Write. Only a hint: no delivery depends on it.
	uncollected atomic.Int64

	// calls mirrors len(pending) for pick, which reads it without
	// pmu; failed is set once the conn fails.
	calls  atomic.Int64
	failed atomic.Bool

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

// commitBuf is the buffer callers encode into; its Write appends.
type commitBuf struct{ b []byte }

func (w *commitBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func newClientStream(c net.Conn) *clientStream {
	cs := &clientStream{
		c:       c,
		readSem: make(chan struct{}, 1),
		dec:     stream.NewDecoder(c),
		pending: make(map[uint64]*streamCall),
	}
	cs.enc = stream.NewEncoder(&cs.out)
	return cs
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
	cs.calls.Add(1)
	cs.pmu.Unlock()
	return call, corr, nil
}

// writeInfers encodes one infer frame per request, in order, and
// commits them together.
func (cs *clientStream) writeInfers(corrs []uint64, reqs []clockwork.Request) error {
	return cs.send(func(enc *stream.Encoder) error {
		for i := range reqs {
			if err := enc.Infer(&stream.InferFrame{
				Corr:     corrs[i],
				SLO:      int64(reqs[i].SLO),
				Priority: int64(reqs[i].Priority),
				MaxBatch: int64(reqs[i].MaxBatchSize),
				Model:    reqs[i].Model,
				Tenant:   reqs[i].Tenant,
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// send encodes under wmu into the connection's commit buffer and
// commits. An encode error (an oversized frame) takes back every frame
// encode wrote and commits nothing. A failed write is not returned: it
// fails the connection, which answers every pending call, the caller's
// own included, with ErrStreamClosed.
func (cs *clientStream) send(encode func(*stream.Encoder) error) error {
	cs.wmu.Lock()
	mark := len(cs.out.b)
	err := encode(cs.enc)
	_ = cs.enc.Flush() // into cs.out, whose Write cannot fail
	if err != nil {
		cs.out.b = cs.out.b[:mark]
		cs.wmu.Unlock()
		return fmt.Errorf("%w: %v", ErrStreamClosed, err)
	}
	if !cs.flushing && cs.uncollected.Load() > 0 {
		// The reader has just woken callers that have not run yet. Let
		// them encode their next frames first: the last of them to run
		// finds the count at zero and writes for all.
		cs.wmu.Unlock()
		runtime.Gosched()
		cs.wmu.Lock()
	}
	if cs.flushing || len(cs.out.b) == 0 {
		cs.wmu.Unlock() // a flusher's Write carries (or carried) these frames
		return nil
	}
	cs.flushing = true
	for len(cs.out.b) > 0 {
		buf := cs.out.b
		cs.out.b = cs.spare
		cs.wmu.Unlock()
		_, err := cs.c.Write(buf)
		cs.wmu.Lock()
		cs.spare = buf[:0]
		if err != nil {
			cs.out.b = cs.out.b[:0]
			cs.flushing = false
			cs.wmu.Unlock()
			cs.fail(err)
			return nil
		}
	}
	cs.flushing = false
	cs.wmu.Unlock()
	return nil
}

// await blocks for the call's outcome, serving as the connection's
// reader whenever the token is free: it reads frames and dispatches
// them (to itself or to other waiters) until its own outcome lands.
// The call returns to the pool once its outcome is collected, except a
// Models call, whose list the caller still reads.
func (cs *clientStream) await(ctx context.Context, call *streamCall, corr uint64) (clockwork.Result, error) {
	for {
		select {
		case <-call.done:
			return cs.collect(call)
		case <-ctx.Done():
			return cs.cancel(ctx, call, corr)
		case cs.readSem <- struct{}{}:
			// Elected reader. The outcome may have landed, or the ctx
			// ended, between the last check and the election — look
			// again before blocking on the socket.
			select {
			case <-call.done:
				<-cs.readSem
				return cs.collect(call)
			case <-ctx.Done():
				<-cs.readSem
				return cs.cancel(ctx, call, corr)
			default:
			}
			// Only the token holder can be stuck on the socket, so only
			// it arms the poke: its ctx ending aborts the read, and it
			// treats the timeout as a retry signal, not a connection
			// failure. Other waiters leave through their own ctx case.
			var stop func() bool
			if ctx.Done() != nil {
				stop = context.AfterFunc(ctx, func() { _ = cs.c.SetReadDeadline(time.Now()) })
			}
			// One read that may block, then every whole frame it
			// brought in: the token passes with nothing dispatchable
			// left behind.
			err := cs.readFrame()
			for err == nil && cs.dec.FrameReady() {
				err = cs.readFrame()
			}
			if stop != nil {
				stop()
			}
			<-cs.readSem
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					// A poke (ours, or one that fired as an earlier
					// reader let go): clear it and re-loop.
					_ = cs.c.SetReadDeadline(time.Time{})
					continue
				}
				cs.fail(err)
			}
		}
	}
}

// cancel is await's exit for an ended ctx.
func (cs *clientStream) cancel(ctx context.Context, call *streamCall, corr uint64) (clockwork.Result, error) {
	if !cs.abandon(corr) {
		// A reader (or fail) already claimed the call; its delivery is
		// a few instructions away.
		<-call.done
		cs.collect(call)
	}
	return clockwork.Result{}, ctx.Err()
}

// deliver hands call its outcome; collect is the waiter's side.
func (cs *clientStream) deliver(call *streamCall) {
	cs.uncollected.Add(1)
	call.done <- struct{}{}
}

func (cs *clientStream) collect(call *streamCall) (clockwork.Result, error) {
	cs.uncollected.Add(-1)
	res, err := call.res, call.err
	if !call.hasList {
		callPool.Put(call)
	}
	return res, err
}

// abandon deregisters corr after an encode failure or ctx
// cancellation and pools its call. It reports false when a reader or fail has
// already claimed the call and so owes it a delivery.
func (cs *clientStream) abandon(corr uint64) bool {
	call := cs.take(corr)
	if call != nil {
		callPool.Put(call)
	}
	return call != nil
}

// take claims the call registered under corr, if any.
func (cs *clientStream) take(corr uint64) *streamCall {
	cs.pmu.Lock()
	call, ok := cs.pending[corr]
	if ok {
		delete(cs.pending, corr)
		cs.calls.Add(-1)
	}
	cs.pmu.Unlock()
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
			cs.deliver(call)
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
			cs.deliver(call)
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
			cs.deliver(call)
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
		cs.failed.Store(true)
	}
	pending := cs.pending
	cs.pending = make(map[uint64]*streamCall)
	cs.calls.Add(-int64(len(pending)))
	cs.pmu.Unlock()
	for _, call := range pending {
		call.err = fmt.Errorf("%w: %v", ErrStreamClosed, cause)
		cs.deliver(call)
	}
	cs.c.Close()
}
