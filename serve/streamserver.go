package serve

import (
	"net"
	"sync"
	"time"

	"clockwork"
	"clockwork/serve/stream"
)

// The stream transport: the serving plane's fast path. One TCP
// connection multiplexes many in-flight requests, correlated by a
// client-assigned ID; the reader coalesces every frame readable in one
// scheduling quantum into a single engine injection (amortizing the
// engine wakeup the way the paper's controller amortizes batched GPU
// work); completions fan back out through a per-connection writer
// goroutine that encodes and flushes whole queues at a time.

// maxStreamBatch caps how many infer frames one engine injection may
// carry, bounding the engine-side work per driver turn.
const maxStreamBatch = 256

// ServeStream accepts stream-transport connections on ln until
// Shutdown, serving the binary framing protocol of package
// serve/stream as the fast-path alternative to the HTTP front door.
// It returns nil after a clean Shutdown.
func (s *Server) ServeStream(ln net.Listener) error {
	s.streamMu.Lock()
	if s.isDraining() {
		s.streamMu.Unlock()
		ln.Close()
		return ErrDraining
	}
	s.streamLns[ln] = struct{}{}
	s.streamMu.Unlock()
	defer func() {
		s.streamMu.Lock()
		delete(s.streamLns, ln)
		s.streamMu.Unlock()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil // listener closed by Shutdown
			}
			return err
		}
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true) // frames are already write-coalesced
		}
		go s.serveStreamConn(c)
	}
}

// serveStreamConn runs one connection: a reader loop on this
// goroutine, a writer goroutine for responses.
func (s *Server) serveStreamConn(c net.Conn) {
	sc := newStreamConn(c)
	if s.rec != nil {
		sc.barrier = s.rec.Flush
	}
	s.streamMu.Lock()
	if s.isDraining() {
		s.streamMu.Unlock()
		c.Close()
		return
	}
	s.streamConns[sc] = struct{}{}
	s.streamMu.Unlock()
	defer func() {
		s.streamMu.Lock()
		delete(s.streamConns, sc)
		s.streamMu.Unlock()
	}()

	go sc.writeLoop()
	defer sc.close()

	dec := stream.NewDecoder(c)
	b := getBatch()
	// The reader can exit mid-coalesce (disconnect, malformed frame)
	// with requests admitted but not yet injected: they finish like any
	// other record, so their slots come back and the batch returns to
	// the pool empty.
	defer func() { b.fail(ErrStreamClosed) }()
	for {
		typ, p, err := dec.Next()
		if err != nil {
			return // disconnect or protocol violation: drop the connection
		}
		// Coalesce: pull every frame already readable — they arrived
		// within the same scheduling quantum — into one injection.
		for {
			if !s.streamFrame(sc, dec, typ, p, b) {
				return
			}
			if dec.Buffered() == 0 || len(b.its) >= maxStreamBatch {
				break
			}
			typ, p, err = dec.Next()
			if err != nil {
				return
			}
		}
		if len(b.its) > 0 {
			s.injectByShard(b)
			b = getBatch()
		}
	}
}

// streamFrame handles one decoded frame on the reader goroutine:
// infers are admitted into the pending batch (or refused with an error
// frame), control frames are answered via their own injections. A
// false return drops the connection (protocol violation).
func (s *Server) streamFrame(sc *streamConn, dec *stream.Decoder, typ uint8, p []byte, b *batch) bool {
	switch typ {
	case stream.TypeInfer:
		var f stream.InferFrame
		if dec.DecodeInfer(p, &f) != nil {
			return false
		}
		if err := s.admit(); err != nil {
			sc.sendError(f.Corr, errToWire(err), err.Error())
			return true
		}
		b.its = append(b.its, s.newInflight(sc, f.Corr, clockwork.Request{
			Model:        f.Model,
			SLO:          time.Duration(f.SLO),
			Priority:     int(f.Priority),
			Tenant:       f.Tenant,
			MaxBatchSize: int(f.MaxBatch),
		}))
		return true
	case stream.TypeModels:
		corr, err := stream.DecodeCorr(p)
		if err != nil {
			return false
		}
		// A refused injection (driver stopped) must still answer the
		// frame, or the client's correlation waits forever.
		s.live.InjectOrAbortOn(0, func() {
			s.recNoop()
			m := outFramePool.Get().(*outFrame)
			m.typ = stream.TypeModelList
			m.corr = corr
			m.models = append(m.models[:0], s.sys.Models()...)
			sc.send(m)
		}, func() {
			sc.sendError(corr, errToWire(clockwork.ErrLiveStopped), clockwork.ErrLiveStopped.Error())
		})
		return true
	default:
		return false
	}
}

// injectByShard injects a coalesced batch, one engine turn per owner
// shard, so each turn wakes only its own engine. The records are split
// in place, in frame order; when they all share one shard — always on a
// single-engine system — that is one injection and no copying.
func (s *Server) injectByShard(b *batch) {
	for b != nil {
		shard := b.its[0].shard
		var rest *batch
		n := 0
		for _, it := range b.its {
			if it.shard == shard {
				b.its[n] = it
				n++
				continue
			}
			if rest == nil {
				rest = getBatch()
			}
			rest.its = append(rest.its, it)
		}
		b.its = b.its[:n]
		s.injectOn(shard, b)
		b = rest
	}
}

// externalize queues the record's outcome frame toward the client. At
// low occupancy a result skips the writer-goroutine handoff and is
// written from the engine turn itself: one context switch fewer on the
// latency path, while bursts (high occupancy) still coalesce through
// the writer. After close the frame is dropped: the peer is gone, and
// the slot is released all the same.
func (sc *streamConn) externalize(it *inflight, res clockwork.Result, err error) {
	if err != nil {
		sc.sendError(it.corr, errToWire(err), err.Error())
		return
	}
	m := outFramePool.Get().(*outFrame)
	m.typ = stream.TypeResult
	m.result = stream.ResultFrame{
		Corr:      it.corr,
		RequestID: res.RequestID,
		Latency:   int64(res.Latency),
		Batch:     uint64(res.Batch),
		Reason:    uint8(res.Reason),
		Success:   res.Success,
		ColdStart: res.ColdStart,
	}
	if s := it.s; s.inflightLow() {
		// Barrier before the engine-turn socket write; an inline miss
		// falls back to the queue, where the writer loop re-barriers
		// before its own write.
		if s.rec != nil {
			s.rec.Flush()
		}
		if sc.sendInline(m) {
			return
		}
	}
	sc.send(m)
}

// ---- per-connection writer ----

// outFrame is one queued server→client frame, pooled so the
// steady-state response path reuses memory.
type outFrame struct {
	typ    uint8
	result stream.ResultFrame
	errf   stream.ErrorFrame
	corr   uint64   // TypeModelList correlation
	models []string // TypeModelList payload
}

var outFramePool = sync.Pool{New: func() any { return new(outFrame) }}

// streamConn is the server side of one stream connection. send may be
// called from any goroutine (engine callbacks, the reader); a single
// writer goroutine drains the queue, encoding and flushing whole
// batches — write coalescing falls out of taking the queue wholesale.
type streamConn struct {
	c   net.Conn
	enc *stream.Encoder

	// iomu serialises actual socket writes: the writer goroutine's
	// batches and the low-occupancy inline fast path.
	iomu sync.Mutex

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*outFrame
	spare  []*outFrame // double buffer, swapped with queue each wakeup
	closed bool        // no further sends; writer exits once drained

	// barrier, when set, runs before every socket write the writer loop
	// makes: the journal's group-commit flush, so acks buffered by the
	// engine reach the kernel before their result frames reach the wire.
	barrier func()

	writerDone chan struct{}
}

func newStreamConn(c net.Conn) *streamConn {
	sc := &streamConn{
		c:          c,
		enc:        stream.NewEncoder(c),
		writerDone: make(chan struct{}),
	}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

// send queues one frame for the writer. After close the frame is
// dropped (the peer is gone or going); the pool gets it back either
// way.
func (sc *streamConn) send(m *outFrame) {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		outFramePool.Put(m)
		return
	}
	sc.queue = append(sc.queue, m)
	sc.cond.Signal()
	sc.mu.Unlock()
}

// sendInline attempts to encode and flush m directly on the calling
// goroutine (the engine turn), bypassing the writer handoff. It only
// proceeds when the writer is idle and the queue empty, preserving
// frame order; with the write deadline below, a jammed peer can stall
// the engine at most briefly, once — the failed write closes the
// connection. Reports whether m was consumed.
func (sc *streamConn) sendInline(m *outFrame) bool {
	if !sc.iomu.TryLock() {
		return false
	}
	sc.mu.Lock()
	ok := !sc.closed && len(sc.queue) == 0
	sc.mu.Unlock()
	if !ok {
		sc.iomu.Unlock()
		return false
	}
	_ = sc.c.SetWriteDeadline(time.Now().Add(250 * time.Millisecond))
	err := sc.enc.Result(&m.result)
	if err == nil {
		err = sc.enc.Flush()
	}
	_ = sc.c.SetWriteDeadline(time.Time{})
	sc.iomu.Unlock()
	outFramePool.Put(m)
	if err != nil {
		sc.close()
	}
	return true
}

func (sc *streamConn) sendError(corr uint64, code uint8, msg string) {
	m := outFramePool.Get().(*outFrame)
	m.typ = stream.TypeError
	m.errf = stream.ErrorFrame{Corr: corr, Code: code, Message: msg}
	sc.send(m)
}

// writeLoop drains the queue until the connection is closed AND the
// queue is empty, encoding every queued frame and flushing once per
// wakeup. It owns the socket's write side and closes the socket on
// exit, which also kicks the reader goroutine out of its blocking
// read.
func (sc *streamConn) writeLoop() {
	defer close(sc.writerDone)
	defer sc.c.Close()
	for {
		sc.mu.Lock()
		for len(sc.queue) == 0 && !sc.closed {
			sc.cond.Wait()
		}
		batch := sc.queue
		sc.queue = sc.spare[:0]
		sc.spare = batch
		done := sc.closed && len(batch) == 0
		sc.mu.Unlock()
		if done {
			return
		}
		if sc.barrier != nil {
			sc.barrier()
		}
		err := sc.writeBatch(batch)
		for i := range batch {
			outFramePool.Put(batch[i])
			batch[i] = nil
		}
		if err != nil {
			sc.close() // peer gone; stop accepting sends, drop the rest
			return
		}
	}
}

func (sc *streamConn) writeBatch(batch []*outFrame) error {
	sc.iomu.Lock()
	defer sc.iomu.Unlock()
	for _, m := range batch {
		var err error
		switch m.typ {
		case stream.TypeResult:
			err = sc.enc.Result(&m.result)
		case stream.TypeError:
			err = sc.enc.Error(&m.errf)
		case stream.TypeModelList:
			err = sc.enc.ModelList(m.corr, m.models)
		}
		if err != nil {
			return err
		}
	}
	return sc.enc.Flush()
}

// close marks the connection dead: sends become drops, and the writer
// exits once its current queue is drained (then closes the socket).
// Idempotent, any goroutine.
func (sc *streamConn) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.cond.Signal()
	sc.mu.Unlock()
}
