package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"clockwork"
	"clockwork/serve/stream"
)

// heldConn is a scripted client-side net.Conn. Each Write announces
// its bytes on writes and then blocks until the test sends the Write's
// result on release; Reads come from what the test writes to server.
type heldConn struct {
	writes  chan []byte
	release chan error
	r       *io.PipeReader
	server  *io.PipeWriter
}

func newHeldConn() *heldConn {
	r, w := io.Pipe()
	return &heldConn{writes: make(chan []byte, 16), release: make(chan error), r: r, server: w}
}

func (c *heldConn) Write(p []byte) (int, error) {
	c.writes <- append([]byte(nil), p...)
	if err := <-c.release; err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *heldConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *heldConn) Close() error                     { return c.r.Close() }
func (c *heldConn) LocalAddr() net.Addr              { return nil }
func (c *heldConn) RemoteAddr() net.Addr             { return nil }
func (c *heldConn) SetDeadline(time.Time) error      { return nil }
func (c *heldConn) SetReadDeadline(time.Time) error  { return nil }
func (c *heldConn) SetWriteDeadline(time.Time) error { return nil }

// nextWrite returns the bytes of the next Write to enter the conn.
func (c *heldConn) nextWrite(t *testing.T) []byte {
	t.Helper()
	select {
	case p := <-c.writes:
		return p
	case <-time.After(5 * time.Second):
		t.Fatal("no Write reached the connection")
		return nil
	}
}

// commitRig drives one clientStream on a heldConn: the first caller's
// flush is held in Write while riders encode behind it.
type commitRig struct {
	t     *testing.T
	conn  *heldConn
	cs    *clientStream
	calls map[uint64]*streamCall
	corrs []uint64 // in encode order
	first chan error
}

// newCommitRig starts the first caller, whose frame becomes the first
// Write, and returns with that Write held.
func newCommitRig(t *testing.T) *commitRig {
	conn := newHeldConn()
	rig := &commitRig{t: t, conn: conn, cs: newClientStream(conn), calls: map[uint64]*streamCall{}, first: make(chan error, 1)}
	corrs := rig.start(1)
	go func() { rig.first <- rig.cs.writeInfers(corrs, inferReqs(1)) }()
	if got := decodeCorrs(t, conn.nextWrite(t)); !slices.Equal(got, corrs) {
		t.Fatalf("first Write carried corrs %v, want %v", got, corrs)
	}
	return rig
}

func inferReqs(n int) []clockwork.Request {
	reqs := make([]clockwork.Request, n)
	for i := range reqs {
		reqs[i] = clockwork.Request{Model: "m", SLO: time.Second}
	}
	return reqs
}

func (r *commitRig) start(n int) []uint64 {
	r.t.Helper()
	corrs := make([]uint64, n)
	for i := range corrs {
		call, corr, err := r.cs.start("m", "")
		if err != nil {
			r.t.Fatalf("start: %v", err)
		}
		r.calls[corr], corrs[i] = call, corr
	}
	r.corrs = append(r.corrs, corrs...)
	return corrs
}

// ride encodes n frames as one caller while the flush is held. The
// caller must return without writing: its frames wait for the flusher.
func (r *commitRig) ride(n int) {
	r.t.Helper()
	corrs := r.start(n)
	done := make(chan error, 1)
	go func() { done <- r.cs.writeInfers(corrs, inferReqs(n)) }()
	select {
	case err := <-done:
		if err != nil {
			r.t.Fatalf("rider: %v", err)
		}
	case p := <-r.conn.writes:
		r.t.Fatalf("a rider wrote %d bytes itself while a flush was held", len(p))
	}
}

// awaitAll waits on every registered call from its own goroutine and
// returns each outcome by corr.
func (r *commitRig) awaitAll() map[uint64]error {
	type outcome struct {
		corr uint64
		res  clockwork.Result
		err  error
	}
	ch := make(chan outcome, len(r.calls))
	for corr, call := range r.calls {
		go func() {
			res, err := r.cs.await(context.Background(), call, corr)
			ch <- outcome{corr, res, err}
		}()
	}
	got := make(map[uint64]error, len(r.calls))
	for range r.calls {
		select {
		case o := <-ch:
			if _, dup := got[o.corr]; dup {
				r.t.Fatalf("corr %d answered twice", o.corr)
			}
			if o.err == nil && o.res.RequestID != 1000+o.corr {
				r.t.Fatalf("corr %d got request ID %d, another caller's outcome", o.corr, o.res.RequestID)
			}
			got[o.corr] = o.err
		case <-time.After(5 * time.Second):
			r.t.Fatalf("%d of %d callers never got an outcome", len(r.calls)-len(got), len(r.calls))
		}
	}
	return got
}

func decodeCorrs(t *testing.T, p []byte) []uint64 {
	t.Helper()
	dec := stream.NewDecoder(bytes.NewReader(p))
	var corrs []uint64
	for {
		typ, payload, err := dec.Next()
		if err == io.EOF {
			return corrs
		}
		if err != nil || typ != stream.TypeInfer {
			t.Fatalf("Write holds a bad frame: type %d, %v", typ, err)
		}
		var f stream.InferFrame
		if err := dec.DecodeInfer(payload, &f); err != nil {
			t.Fatalf("DecodeInfer: %v", err)
		}
		corrs = append(corrs, f.Corr)
	}
}

// TestStreamClientGroupCommit: while one flush is held in Write, the
// frames of every caller that encodes behind it go out in the next
// single Write, in encode order (a batch caller's frames contiguous),
// and each caller gets its own outcome back.
func TestStreamClientGroupCommit(t *testing.T) {
	rig := newCommitRig(t)
	rig.ride(1)
	rig.ride(3) // one caller, three frames
	rig.ride(1)
	riders := rig.corrs[1:]

	rig.conn.release <- nil // the first Write completes
	if got := decodeCorrs(t, rig.conn.nextWrite(t)); !slices.Equal(got, riders) {
		t.Fatalf("second Write carried corrs %v, want every rider's %v in order", got, riders)
	}
	rig.conn.release <- nil
	if err := <-rig.first; err != nil {
		t.Fatalf("flusher: %v", err)
	}
	if n := len(rig.conn.writes); n != 0 {
		t.Fatalf("%d Writes after the riders' one", n)
	}

	// Answer in reverse order, all in one segment.
	enc := stream.NewEncoder(rig.conn.server)
	for i := len(rig.corrs) - 1; i >= 0; i-- {
		corr := rig.corrs[i]
		if err := enc.Result(&stream.ResultFrame{Corr: corr, RequestID: 1000 + corr, Success: true}); err != nil {
			t.Fatal(err)
		}
	}
	go enc.Flush()
	for corr, err := range rig.awaitAll() {
		if err != nil {
			t.Fatalf("corr %d: %v", corr, err)
		}
	}
	if n := rig.cs.uncollected.Load(); n != 0 {
		t.Fatalf("uncollected = %d after every outcome was taken", n)
	}
}

// TestStreamClientFailedCommit: a Write that fails fails the whole
// connection. The flusher and every rider get ErrStreamClosed exactly
// once, nothing further is written, and pending is left empty.
func TestStreamClientFailedCommit(t *testing.T) {
	rig := newCommitRig(t)
	rig.ride(1)
	rig.ride(2)

	rig.conn.release <- errors.New("connection reset")
	if err := <-rig.first; err != nil {
		t.Fatalf("flusher: %v (a write failure reaches callers through their calls)", err)
	}
	if n := len(rig.conn.writes); n != 0 {
		t.Fatalf("%d Writes after the failed one", n)
	}
	for corr, err := range rig.awaitAll() {
		if !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("corr %d: %v, want ErrStreamClosed", corr, err)
		}
	}
	rig.cs.pmu.Lock()
	left := len(rig.cs.pending)
	rig.cs.pmu.Unlock()
	if left != 0 {
		t.Fatalf("%d calls left pending", left)
	}
	if n := rig.cs.uncollected.Load(); n != 0 {
		t.Fatalf("uncollected = %d: some call was answered twice", n)
	}
	if _, _, err := rig.cs.start("m", ""); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("start on a failed connection: %v, want ErrStreamClosed", err)
	}
}

// countedConn counts the Writes a client connection makes.
type countedConn struct {
	net.Conn
	writes *atomic.Uint64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// loadTwoConns drives n requests from 16 closed-loop callers over a
// StreamClient of two counted connections. It returns the client, whose
// per-connection corr counters say how many calls each carried, and
// the number of Writes the client made.
func loadTwoConns(t *testing.T, n uint64) (*StreamClient, uint64) {
	t.Helper()
	srv, client, _ := newTestStreamServer(t,
		clockwork.Config{Workers: 2, GPUsPerWorker: 2}, Options{Speed: 2000})
	ctx := context.Background()
	if _, err := client.RegisterCopies(ctx, "res", "resnet50_v1b", 4); err != nil {
		t.Fatalf("RegisterCopies: %v", err)
	}
	var writes atomic.Uint64
	sc := &StreamClient{}
	for i := 0; i < 2; i++ {
		nc, err := net.Dial("tcp", streamAddrOf(t, srv))
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		sc.conns = append(sc.conns, newClientStream(countedConn{Conn: nc, writes: &writes}))
	}
	t.Cleanup(func() { sc.Close() })

	rep, err := RunLoad(ctx, LoadConfig{
		Transport:   sc,
		SLO:         time.Second,
		Concurrency: 16,
		Duration:    10 * time.Minute, // the request budget terminates the run
		MaxRequests: n,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Sent != n || rep.Errors != 0 || rep.Duplicates != 0 {
		t.Fatalf("load: sent %d, errors %d, duplicates %d", rep.Sent, rep.Errors, rep.Duplicates)
	}
	return sc, writes.Load()
}

// TestStreamClientWritesCoalesce: 16 closed-loop callers on two
// connections. The callers one read wakes send their next requests on
// that connection and share one write, so the client makes well under
// one write per request (one each without the group commit, ~0.5 when
// round-robin split each read's callers across both connections).
func TestStreamClientWritesCoalesce(t *testing.T) {
	const n = 20_000
	_, writes := loadTwoConns(t, n)
	perReq := float64(writes) / n
	t.Logf("client writes per request at 16 callers on 2 connections: %.3f", perReq)
	if !raceEnabled && perReq > 0.4 {
		t.Fatalf("client writes per request %.3f, want ≤ 0.4: the callers one read wakes no longer share a write", perReq)
	}
}

// deadlineConn is a scripted client-side conn that counts read-deadline
// pokes (a deadline set) and clears, and announces each Read on reading.
type deadlineConn struct {
	net.Conn
	reading       chan struct{}
	pokes, clears atomic.Int32
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	select {
	case c.reading <- struct{}{}:
	default:
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	if t.IsZero() {
		c.clears.Add(1)
	} else {
		c.pokes.Add(1)
	}
	return c.Conn.SetReadDeadline(t)
}

// TestStreamClientCancelPokesOnlyTheReader: a cancelled waiter that
// does not hold the read token leaves without touching the socket; a
// cancelled token holder pokes its own blocked read once, clears the
// deadline it set, and leaves.
func TestStreamClientCancelPokesOnlyTheReader(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	conn := &deadlineConn{Conn: client, reading: make(chan struct{}, 1)}
	cs := newClientStream(conn)
	defer cs.c.Close()
	await := func(ctx context.Context) <-chan error {
		call, corr, err := cs.start("m", "")
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := cs.await(ctx, call, corr)
			done <- err
		}()
		return done
	}
	leave := func(who string, done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled %s returned %v, want context.Canceled", who, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cancelled %s never returned", who)
		}
	}

	readerCtx, cancelReader := context.WithCancel(context.Background())
	defer cancelReader()
	reader := await(readerCtx)
	<-conn.reading // the first waiter holds the token, blocked in Read

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiter := await(waiterCtx)
	cancelWaiter()
	leave("waiter", waiter)
	if p, c := conn.pokes.Load(), conn.clears.Load(); p != 0 || c != 0 {
		t.Fatalf("cancelling a waiter without the token made %d pokes and %d clears, want none", p, c)
	}

	cancelReader()
	leave("reader", reader)
	if p, c := conn.pokes.Load(), conn.clears.Load(); p != 1 || c != 1 {
		t.Fatalf("cancelling the reader made %d pokes and %d clears, want one of each", p, c)
	}
}
