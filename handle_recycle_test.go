package clockwork_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"clockwork"
)

// newSimSystem builds a single-worker simulation system with model "m"
// registered — the deterministic harness for handle-recycling tests.
func newSimSystem(t *testing.T) *clockwork.System {
	t.Helper()
	sys, err := clockwork.New(clockwork.Config{Workers: 1, GPUsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestHandleStaleAfterRelease is the gen-guard contract (the Handle
// analogue of simclock's TestTimerStaleAfterRecycle): every method on a
// copy that outlived its Release is a deterministic no-op, even though
// the underlying slot may already belong to another request.
func TestHandleStaleAfterRelease(t *testing.T) {
	sys := newSimSystem(t)

	h, err := sys.SubmitRequest(clockwork.Request{Model: "m", SLO: time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunFor(time.Second)
	if !h.Done() {
		t.Fatal("request did not complete within a simulated second")
	}
	stale := h // copy survives the Release below
	h.Release()

	// Re-occupy the slot: the next submission typically reuses it, so a
	// buggy stale copy would observe the successor's state.
	h2, err := sys.SubmitRequest(clockwork.Request{Model: "m", SLO: time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}

	if stale.Done() {
		t.Error("stale.Done() = true, want false")
	}
	if stale.ID() != 0 {
		t.Errorf("stale.ID() = %d, want 0", stale.ID())
	}
	if _, ok := stale.Outcome(); ok {
		t.Error("stale.Outcome() ok = true, want false")
	}
	if stale.Cancel() {
		t.Error("stale.Cancel() = true, want false")
	}
	if _, werr := stale.Wait(context.Background()); !errors.Is(werr, clockwork.ErrHandleReleased) {
		t.Errorf("stale.Wait() = %v, want ErrHandleReleased", werr)
	}
	stale.Release() // double release: no-op, must not corrupt h2's slot

	sys.RunFor(time.Second)
	if res, ok := h2.Outcome(); !ok || !res.Success {
		t.Fatalf("successor request corrupted by stale handle: %+v, %v", res, ok)
	}
	h2.Release()
}

// TestHandleZeroValue: the zero Handle behaves exactly like a released
// one — callers may use it as a sentinel without nil checks.
func TestHandleZeroValue(t *testing.T) {
	var h clockwork.Handle
	if h.Done() || h.Cancel() || h.ID() != 0 {
		t.Error("zero Handle must report not-done, not-cancellable, ID 0")
	}
	if _, ok := h.Outcome(); ok {
		t.Error("zero Handle Outcome ok = true")
	}
	if _, err := h.Wait(context.Background()); !errors.Is(err, clockwork.ErrHandleReleased) {
		t.Errorf("zero Handle Wait = %v, want ErrHandleReleased", err)
	}
	h.Release() // no-op
}

// TestHandleReleaseBeforeCompletion: releasing a still-pending handle
// bumps the generation immediately (methods no-op from then on) but the
// request itself runs to its normal outcome — Release abandons the
// observation, not the work.
func TestHandleReleaseBeforeCompletion(t *testing.T) {
	sys := newSimSystem(t)

	var got []clockwork.Result
	h, err := sys.SubmitRequest(clockwork.Request{Model: "m", SLO: time.Second},
		func(r clockwork.Result) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	h.Release() // before any Run: the request is still in flight
	if h.Done() {
		t.Error("released handle reports Done")
	}
	sys.RunFor(time.Second)
	if len(got) != 1 || !got[0].Success {
		t.Fatalf("onDone after early Release: %+v, want one success", got)
	}
	if _, ok := h.Outcome(); ok {
		t.Error("released handle exposes an outcome")
	}
}

// countingSink records deliveries for the fire-and-forget path.
type countingSink struct {
	mu  sync.Mutex
	got []clockwork.Result
}

func (c *countingSink) OnResult(r clockwork.Result) {
	c.mu.Lock()
	c.got = append(c.got, r)
	c.mu.Unlock()
}

// TestSubmitRequestSink: the handle-free submission path delivers the
// outcome to the sink exactly once, with the same fields a Handle would
// observe.
func TestSubmitRequestSink(t *testing.T) {
	sys := newSimSystem(t)

	sink := &countingSink{}
	if err := sys.SubmitRequestSink(0, clockwork.Request{Model: "m", SLO: time.Second}, sink); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(time.Second)
	if len(sink.got) != 1 {
		t.Fatalf("sink fired %d times, want exactly 1", len(sink.got))
	}
	res := sink.got[0]
	if !res.Success || res.Model != "m" || res.Latency <= 0 || res.RequestID == 0 {
		t.Fatalf("sink result: %+v", res)
	}
}

// TestSubmitRequestSinkErrors: submission errors surface synchronously
// (typed) and the sink never fires for them.
func TestSubmitRequestSinkErrors(t *testing.T) {
	sys := newSimSystem(t)

	sink := &countingSink{}
	if err := sys.SubmitRequestSink(0, clockwork.Request{Model: "m", SLO: -time.Second}, sink); !errors.Is(err, clockwork.ErrInvalidRequest) {
		t.Fatalf("negative SLO: %v, want ErrInvalidRequest", err)
	}
	if err := sys.SubmitRequestSink(0, clockwork.Request{Model: "nope", SLO: time.Second}, sink); !errors.Is(err, clockwork.ErrUnknownModel) {
		t.Fatalf("unknown model: %v, want ErrUnknownModel", err)
	}
	sys.RunFor(time.Second)
	if len(sink.got) != 0 {
		t.Fatalf("sink fired %d times on failed submissions, want 0", len(sink.got))
	}
}

// TestHandleRecycleStress hammers the handle free list from 16 client
// goroutines — submit, wait, cancel, release, and stale-copy probes all
// interleaving against a hot pool. Run under -race this is the
// regression net for the generation guard: a missing guard shows up as
// a data race or a cross-request observation, both fatal here.
func TestHandleRecycleStress(t *testing.T) {
	sys, live := newLiveSystem(t, 1000)

	const goroutines = 16
	iters := 40
	if testing.Short() {
		iters = 8
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var h clockwork.Handle
				var err error
				if doErr := live.Do(func() {
					h, err = sys.SubmitRequest(clockwork.Request{Model: "m", SLO: time.Second}, nil)
				}); doErr != nil {
					t.Errorf("g%d: Do: %v", g, doErr)
					return
				}
				if err != nil {
					t.Errorf("g%d: SubmitRequest: %v", g, err)
					return
				}
				switch (g + i) % 4 {
				case 0: // wait, release, then probe a stale copy
					stale := h
					if _, werr := h.Wait(ctx); werr != nil {
						t.Errorf("g%d: Wait: %v", g, werr)
						return
					}
					h.Release()
					if stale.Done() || stale.Cancel() || stale.ID() != 0 {
						t.Errorf("g%d: stale copy observed live state", g)
						return
					}
					if _, werr := stale.Wait(ctx); !errors.Is(werr, clockwork.ErrHandleReleased) {
						t.Errorf("g%d: stale Wait: %v", g, werr)
						return
					}
				case 1: // cancel on the engine goroutine, then wait out the outcome
					if doErr := live.Do(func() { h.Cancel() }); doErr != nil {
						t.Errorf("g%d: Do(Cancel): %v", g, doErr)
						return
					}
					if _, werr := h.Wait(ctx); werr != nil {
						t.Errorf("g%d: Wait after Cancel: %v", g, werr)
						return
					}
					h.Release()
				case 2: // release immediately: the in-flight request completes unobserved
					h.Release()
					h.Release() // double release is a no-op
				case 3: // wait without cancelling, double-release at the end
					if _, werr := h.Wait(ctx); werr != nil {
						t.Errorf("g%d: Wait: %v", g, werr)
						return
					}
					if !h.Done() {
						t.Errorf("g%d: Done false after Wait", g)
						return
					}
					h.Release()
					h.Release()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSinkStress drives the fire-and-forget path from 16 goroutines
// against the pooled sink adapters; every submission must deliver
// exactly once (counted), with no lost or duplicated outcomes.
func TestSinkStress(t *testing.T) {
	sys, live := newLiveSystem(t, 1000)

	const goroutines = 16
	iters := 40
	if testing.Short() {
		iters = 8
	}
	var delivered sync.WaitGroup
	var submitted int64
	var mu sync.Mutex

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				delivered.Add(1)
				ok := false
				if doErr := live.Do(func() {
					if err := sys.SubmitRequestSink(0, clockwork.Request{Model: "m", SLO: time.Second}, sinkFunc(func(clockwork.Result) {
						delivered.Done()
					})); err == nil {
						ok = true
					}
				}); doErr != nil {
					t.Errorf("Do: %v", doErr)
				}
				if !ok {
					delivered.Done() // submission refused: no outcome coming
					continue
				}
				mu.Lock()
				submitted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	done := make(chan struct{})
	go func() { delivered.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("sink outcomes never all arrived (lost delivery)")
	}
	if submitted == 0 {
		t.Fatal("no submission succeeded")
	}
}

// sinkFunc adapts a func to ResultSink for tests.
type sinkFunc func(clockwork.Result)

func (f sinkFunc) OnResult(r clockwork.Result) { f(r) }
