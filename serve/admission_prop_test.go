package serve

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"clockwork"
)

// TestAdmissionWindowNeverLeaksUnderChurn is the property behind
// TestHTTPDisconnectKeepsWindowCharged, generalised: under a
// randomized schedule of HTTP and stream inferences — some cancelled
// mid-flight, some with SLOs tight enough to be dead on arrival, some
// shed at the window, with a worker drained and another added mid-run
// — every admission slot must come back exactly once. The schedule is
// drawn from a fixed seed so the op mix replays identically; the
// goroutine interleaving stays free, which is the point: no
// interleaving of cancel/disconnect/drain may strand or double-release
// a slot. Run under -race this also proves the slot accounting is
// data-race-free across both front doors.
func TestAdmissionWindowNeverLeaksUnderChurn(t *testing.T) {
	sys, err := clockwork.New(clockwork.Config{Workers: 2, GPUsPerWorker: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := New(sys, Options{Speed: 50, MaxInFlight: 6})
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen http: %v", err)
	}
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen stream: %v", err)
	}
	go func() { _ = srv.Serve(hln) }()
	streamErr := make(chan error, 1)
	go func() { streamErr <- srv.ServeStream(sln) }()
	client := NewClient(hln.Addr().String(), nil)
	sc, err := DialStream(sln.Addr().String(), StreamOptions{Conns: 2})
	if err != nil {
		t.Fatalf("DialStream: %v", err)
	}
	t.Cleanup(func() {
		_ = sc.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-streamErr; err != nil {
			t.Errorf("ServeStream: %v", err)
		}
	})

	ctx := context.Background()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}

	// Deterministic op schedule from a fixed seed: transport,
	// cancellation point, SLO tightness and launch stagger per op.
	rnd := rand.New(rand.NewSource(11))
	type op struct {
		stream      bool
		cancelAfter time.Duration // 0 = let it run
		slo         time.Duration
		pause       time.Duration // stagger before launch
	}
	ops := make([]op, 96)
	for i := range ops {
		o := op{stream: rnd.Intn(2) == 0, slo: 10 * time.Second,
			pause: time.Duration(rnd.Intn(4)) * time.Millisecond}
		switch rnd.Intn(3) {
		case 0: // client walks away mid-request
			o.cancelAfter = time.Duration(1+rnd.Intn(25)) * time.Millisecond
		case 1: // dead on arrival: outcome is a fast SLO abort
			o.slo = 2 * time.Millisecond
		}
		ops[i] = o
	}

	var wg sync.WaitGroup
	for i, o := range ops {
		time.Sleep(o.pause)
		wg.Add(1)
		go func(o op) {
			defer wg.Done()
			ictx := ctx
			if o.cancelAfter > 0 {
				var cancel context.CancelFunc
				ictx, cancel = context.WithTimeout(ctx, o.cancelAfter)
				defer cancel()
			}
			req := clockwork.Request{Model: "m", SLO: o.slo}
			// Every terminal state — success, SLO miss, shed
			// (ErrOverloaded), cancel — is a legal outcome here; the
			// property under test is the slot accounting, not the verdict.
			if o.stream {
				_, _ = sc.Infer(ictx, req)
			} else {
				_, _ = client.Infer(ictx, req)
			}
		}(o)
		// Worker membership churns mid-schedule: capacity changes must
		// not disturb slot accounting either.
		switch i {
		case len(ops) / 3:
			if err := srv.Live().Do(func() { _ = sys.DrainWorker(1) }); err != nil {
				t.Fatalf("drain: %v", err)
			}
		case 2 * len(ops) / 3:
			if err := srv.Live().Do(func() { sys.AddWorker() }); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
	}
	wg.Wait()

	// Each admitted request holds its slot until the engine outcome, so
	// after the clients return the count may lag — but it must reach
	// exactly zero, never a stranded positive. (A slot released twice
	// panics in Window.Release.)
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := serverInflight(srv)
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight = %d after full drain, want 0: admission slot leaked", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
