package serve

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clockwork"
	"clockwork/serve/stream"
)

// callsOf returns how many calls cs has registered since it was
// dialled: its last correlation ID.
func callsOf(cs *clientStream) uint64 {
	cs.pmu.Lock()
	defer cs.pmu.Unlock()
	return cs.corr
}

// TestStreamClientBalancesConns: at 16 callers on two connections each
// connection carries 35–65% of the requests. The callers one read wakes
// follow that connection only while it is the least loaded. The run is
// long enough (about a second) that one stalled thread on a busy host
// cannot tip the shares.
func TestStreamClientBalancesConns(t *testing.T) {
	sc, _ := loadTwoConns(t, e2eRequests)
	a, b := callsOf(sc.conns[0]), callsOf(sc.conns[1])
	share := float64(a) / float64(a+b)
	t.Logf("connection shares at 16 callers: %.3f / %.3f", share, 1-share)
	if !raceEnabled && (share < 0.35 || share > 0.65) {
		t.Fatalf("connection shares %.3f / %.3f, want each within 35–65%%", share, 1-share)
	}
}

// TestStreamClientSequentialAlternates: with nothing in flight every
// connection ties, and a sequential caller alternates between them.
func TestStreamClientSequentialAlternates(t *testing.T) {
	_, client, sc := newTestStreamServer(t,
		clockwork.Config{Workers: 1, GPUsPerWorker: 1}, Options{Speed: 2000})
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	last := -1
	for i := 0; i < 10; i++ {
		before := callsOf(sc.conns[1])
		if _, err := sc.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second}); err != nil {
			t.Fatalf("Infer %d: %v", i, err)
		}
		used := 0
		if callsOf(sc.conns[1]) != before {
			used = 1
		}
		if used == last {
			t.Fatalf("call %d went to connection %d again", i, used)
		}
		last = used
	}
}

// TestStreamClientFailover: one of two connections fails mid-load.
// Calls in flight on it fail with ErrStreamClosed; every call started
// after the failure succeeds on the other connection, although the dead
// one now has no calls and would otherwise be the least loaded.
func TestStreamClientFailover(t *testing.T) {
	_, client, sc := newTestStreamServer(t,
		clockwork.Config{Workers: 2, GPUsPerWorker: 2}, Options{Speed: 2000})
	ctx := context.Background()
	if _, err := client.RegisterCopies(ctx, "res", "resnet50_v1b", 4); err != nil {
		t.Fatalf("RegisterCopies: %v", err)
	}
	req := clockwork.Request{Model: "res#0", SLO: time.Second}
	var (
		killed, stop atomic.Bool
		done         atomic.Int64
		wg           sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				after := killed.Load()
				_, err := sc.Infer(ctx, req)
				switch {
				case err == nil:
					done.Add(1)
				case after:
					t.Errorf("call started after the failure: %v", err)
					return
				case !errors.Is(err, ErrStreamClosed):
					t.Errorf("call in flight at the failure: %v, want ErrStreamClosed", err)
					return
				}
			}
		}()
	}
	waitDone := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for done.Load() < n {
			if t.Failed() {
				stop.Store(true)
				wg.Wait()
				t.FailNow()
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d calls completed", done.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitDone(500)
	sc.conns[0].fail(errors.New("connection reset"))
	killed.Store(true)
	waitDone(done.Load() + 500)
	stop.Store(true)
	wg.Wait()
	for i := 0; i < 10; i++ {
		if _, err := sc.Infer(ctx, req); err != nil {
			t.Fatalf("sequential call %d after the failure: %v", i, err)
		}
	}
}

// pipePeer is the server end of a clientStream on a net.Pipe: it reads
// the infer frames the client writes and reports their corrs, and
// answer sends one result back.
type pipePeer struct {
	corrs chan uint64
	enc   *stream.Encoder
}

func newPipeStream(t *testing.T) (*clientStream, *pipePeer) {
	client, server := net.Pipe()
	t.Cleanup(func() { server.Close() })
	p := &pipePeer{corrs: make(chan uint64, 16), enc: stream.NewEncoder(server)}
	go func() {
		dec := stream.NewDecoder(server)
		for {
			_, payload, err := dec.Next()
			if err != nil {
				return
			}
			var f stream.InferFrame
			if dec.DecodeInfer(payload, &f) == nil {
				p.corrs <- f.Corr
			}
		}
	}()
	return newClientStream(client), p
}

func (p *pipePeer) answer(t *testing.T, corr uint64) {
	t.Helper()
	if err := p.enc.Result(&stream.ResultFrame{Corr: corr, RequestID: corr, Success: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.enc.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamClientCallsMirrorPending: after completions, ctx cancels
// and a failed connection, each connection's call count equals its
// pending map, and pick skips the failed connection although it has
// fewer calls.
func TestStreamClientCallsMirrorPending(t *testing.T) {
	a, pa := newPipeStream(t)
	b, pb := newPipeStream(t)
	defer a.fail(ErrStreamClosed)
	send := func(cs *clientStream, p *pipePeer, ctx context.Context) (uint64, <-chan error) {
		t.Helper()
		call, corr, err := cs.start("m", "")
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		out := make(chan error, 1)
		go func() {
			if err := cs.writeInfers([]uint64{corr}, inferReqs(1)); err != nil {
				out <- err
				return
			}
			_, err := cs.await(ctx, call, corr)
			out <- err
		}()
		if got := <-p.corrs; got != corr {
			t.Fatalf("server read corr %d, want %d", got, corr)
		}
		return corr, out
	}
	expect := func(what string, out <-chan error, want error) {
		t.Helper()
		select {
		case err := <-out:
			if !errors.Is(err, want) {
				t.Fatalf("%s returned %v, want %v", what, err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never returned", what)
		}
	}
	check := func(wantA, wantB int) {
		t.Helper()
		want := []int{wantA, wantB}
		for i, cs := range []*clientStream{a, b} {
			cs.pmu.Lock()
			calls, pending := cs.calls.Load(), len(cs.pending)
			cs.pmu.Unlock()
			if calls != int64(pending) || pending != want[i] {
				t.Fatalf("connection %d: calls %d, pending %d, want both %d", i, calls, pending, want[i])
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bg := context.Background()
	var corrs []uint64
	var outs []<-chan error
	for i := 0; i < 3; i++ {
		corr, out := send(a, pa, bg)
		corrs, outs = append(corrs, corr), append(outs, out)
	}
	_, c1 := send(a, pa, ctx)
	_, c2 := send(a, pa, ctx)
	_, b1 := send(b, pb, bg)
	_, b2 := send(b, pb, bg)
	check(5, 2)

	pa.answer(t, corrs[0])
	pa.answer(t, corrs[1])
	expect("a completed call", outs[0], nil)
	expect("a completed call", outs[1], nil)
	check(3, 2)

	cancel()
	expect("a cancelled call", c1, context.Canceled)
	expect("a cancelled call", c2, context.Canceled)
	check(1, 2)

	b.fail(errors.New("connection reset"))
	expect("a call on the failed connection", b1, ErrStreamClosed)
	expect("a call on the failed connection", b2, ErrStreamClosed)
	check(1, 0)
	sc := &StreamClient{conns: []*clientStream{a, b}}
	for i := 0; i < 4; i++ {
		if sc.pick() != a {
			t.Fatalf("pick %d chose the failed connection", i)
		}
	}

	pa.answer(t, corrs[2])
	expect("a completed call", outs[2], nil)
	check(0, 0)
}
