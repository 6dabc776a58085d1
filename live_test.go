package clockwork_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clockwork"
)

func newLiveSystem(t *testing.T, speed float64) (*clockwork.System, *clockwork.Live) {
	t.Helper()
	sys, err := clockwork.New(clockwork.Config{Workers: 1, GPUsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	live := sys.StartLive(speed)
	t.Cleanup(live.Stop)
	return sys, live
}

// TestLiveHandleWait is the completion-notification contract: a client
// goroutine submits through the live driver and blocks on Wait instead
// of busy-polling Done.
func TestLiveHandleWait(t *testing.T) {
	sys, live := newLiveSystem(t, 1000)

	var h clockwork.Handle
	var err error
	if doErr := live.Do(func() {
		h, err = sys.SubmitRequest(clockwork.Request{Model: "m", SLO: time.Second}, nil)
	}); doErr != nil {
		t.Fatal(doErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !res.Success || res.Latency <= 0 {
		t.Fatalf("Wait result: %+v", res)
	}
	if !h.Done() {
		t.Fatal("Done must be true after Wait returns")
	}
	if res2, ok := h.Outcome(); !ok || res2 != res {
		t.Fatalf("Outcome after Wait: %+v, %v", res2, ok)
	}
}

// TestLiveHandleWaitCtxCancel: a cancelled ctx abandons the wait, not
// the request.
func TestLiveHandleWaitCtxCancel(t *testing.T) {
	sys, live := newLiveSystem(t, 1) // real time: the request outlives the ctx

	var h clockwork.Handle
	var err error
	if doErr := live.Do(func() {
		h, err = sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 2 * time.Second}, nil)
	}); doErr != nil {
		t.Fatal(doErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, werr := h.Wait(ctx); !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait with cancelled ctx: %v", werr)
	}
	// The request still completes.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if res, werr := h.Wait(ctx2); werr != nil || !res.Success {
		t.Fatalf("request abandoned with the ctx: %+v, %v", res, werr)
	}
}

// TestLiveOnResult: the per-request callback fires on the engine
// goroutine, once, before any Wait returns.
func TestLiveOnResult(t *testing.T) {
	sys, live := newLiveSystem(t, 1000)

	var mu sync.Mutex
	got := make([]clockwork.Result, 0, 1)
	fromCallback := make(chan clockwork.Result, 1)
	var h clockwork.Handle
	var err error
	if doErr := live.Do(func() {
		h, err = sys.SubmitRequest(clockwork.Request{Model: "m", SLO: time.Second},
			func(r clockwork.Result) {
				mu.Lock()
				got = append(got, r)
				mu.Unlock()
				fromCallback <- r
			})
	}); doErr != nil {
		t.Fatal(doErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case cb := <-fromCallback:
		if cb != res {
			t.Fatalf("onDone saw %+v, Wait saw %+v", cb, res)
		}
	case <-ctx.Done():
		t.Fatal("onDone never fired")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("onDone fired %d times, want 1", len(got))
	}
}

// TestLiveDoAfterStop: Do against a stopped driver reports
// ErrLiveStopped instead of deadlocking, Inject reports refusal instead
// of silently dropping the function, and InjectOrAbort runs the abort
// hook.
func TestLiveDoAfterStop(t *testing.T) {
	sys, err := clockwork.New(clockwork.Config{})
	if err != nil {
		t.Fatal(err)
	}
	live := sys.StartLive(1000)
	live.Stop()
	if doErr := live.Do(func() {}); !errors.Is(doErr, clockwork.ErrLiveStopped) {
		t.Fatalf("Do after Stop: %v, want ErrLiveStopped", doErr)
	}
	if live.Inject(func() { t.Error("fn ran after Stop") }) {
		t.Fatal("Inject reported accepted after Stop")
	}
	aborted := false
	live.InjectOrAbort(func() { t.Error("fn ran after Stop") }, func() { aborted = true })
	if !aborted {
		t.Fatal("InjectOrAbort after Stop did not run the abort hook")
	}
	live.Stop() // idempotent
}

// TestSimWaitStillWorks: Wait also composes with the virtual clock —
// a goroutine advancing the clock releases a waiting goroutine.
func TestSimWaitStillWorks(t *testing.T) {
	sys, err := clockwork.New(clockwork.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitRequest(clockwork.Request{Model: "m", SLO: time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if res, werr := h.Wait(ctx); werr != nil || !res.Success {
			t.Errorf("Wait: %+v, %v", res, werr)
		}
	}()
	sys.RunFor(time.Second)
	<-done
}

// TestLiveDoRacingStopWithBacklog: Do is a barrier that can still be
// waiting for the pacer's next turn, behind an overdue event that is
// running, when Stop lands. Do must still return (nil if it got there
// first, ErrLiveStopped otherwise) and Stop must return — the waiting
// barrier is turned away, not stranded.
func TestLiveDoRacingStopWithBacklog(t *testing.T) {
	sys, err := clockwork.New(clockwork.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var stepped atomic.Int64
	for i := 0; i < 200; i++ {
		sys.After(0, func() {
			time.Sleep(time.Millisecond)
			stepped.Add(1)
		})
	}
	live := sys.StartLive(1000)
	got := make(chan error, 1)
	go func() { got <- live.Do(func() {}) }()
	// Two more backlog events guarantee a pacer turn has passed since
	// Do was called, with the backlog still running.
	for from := stepped.Load(); stepped.Load() < from+2; {
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan struct{})
	go func() { live.Stop(); close(stopped) }()
	select {
	case err := <-got:
		if err != nil && !errors.Is(err, clockwork.ErrLiveStopped) {
			t.Errorf("Do = %v, want nil or ErrLiveStopped", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do hung across a Stop with a backlog running")
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung")
	}
}

// TestLiveEverySingleEngine: on a single-engine system Every fires at
// the speed-scaled cadence, does not queue ticks behind a blocked
// engine (each tick is a Do, so the ticker drops what it cannot
// deliver), and stops with Stop.
func TestLiveEverySingleEngine(t *testing.T) {
	sys, err := clockwork.New(clockwork.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const speed = 1000
	const period = 20 * time.Millisecond // wall; 20s of virtual time
	live := sys.StartLive(speed)
	defer live.Stop()
	var ticks atomic.Int64
	start := time.Now()
	live.Every(period*speed, func() { ticks.Add(1) })

	for ticks.Load() < 3 {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("only %d ticks in %v at a %v period", ticks.Load(), time.Since(start), period)
		}
		time.Sleep(time.Millisecond)
	}
	if n, most := ticks.Load(), int64(time.Since(start)/period)+1; n > most {
		t.Fatalf("%d ticks in %v: faster than the %v cadence allows (%d)", n, time.Since(start), period, most)
	}

	// Wedge the engine for ten periods.
	wedged, release := make(chan struct{}), make(chan struct{})
	live.Inject(func() { close(wedged); <-release })
	<-wedged
	before := ticks.Load()
	time.Sleep(10 * period)
	if n := ticks.Load(); n != before {
		t.Fatalf("%d ticks ran while the engine was wedged", n-before)
	}
	released := time.Now()
	close(release)
	time.Sleep(period / 4)
	// The tick that was blocked in Do, at most the one the ticker
	// channel buffered, and whatever the cadence itself allows in the
	// time this goroutine really slept (a loaded box stretches it) —
	// not the ten that came due while the engine was wedged.
	burst := ticks.Load() - before
	if most := 2 + int64(time.Since(released)/period) + 1; burst > most {
		t.Fatalf("%d ticks ran in a burst after the engine unblocked (at most %d expected): Every queued them", burst, most)
	}

	live.Stop()
	after := ticks.Load()
	time.Sleep(3 * period)
	if n := ticks.Load(); n != after {
		t.Fatalf("%d ticks ran after Stop", n-after)
	}
}

// TestStartLiveTwicePanics: a System has at most one active Live — a
// second pacer on the same engine would race the first — and may start
// a new one once the first has stopped.
func TestStartLiveTwicePanics(t *testing.T) {
	sys, err := clockwork.New(clockwork.Config{})
	if err != nil {
		t.Fatal(err)
	}
	live := sys.StartLive(1000)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second StartLive on a live System did not panic")
			}
		}()
		sys.StartLive(1000)
	}()
	live.Stop()
	sys.StartLive(1000).Stop()
}

// TestRunForWhileLivePanics: the simulation entry points refuse to step
// an engine a Live is pacing, and work again after Stop.
func TestRunForWhileLivePanics(t *testing.T) {
	sys, err := clockwork.New(clockwork.Config{})
	if err != nil {
		t.Fatal(err)
	}
	live := sys.StartLive(1000)
	for name, run := range map[string]func(){
		"RunFor":   func() { sys.RunFor(time.Second) },
		"RunUntil": func() { sys.RunUntil(time.Hour) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s while live did not panic", name)
				}
			}()
			run()
		}()
	}
	live.Stop()
	sys.RunFor(time.Second)
}

// batchCaller is one closed-loop caller's sink: it counts a batch's
// outstanding answers down and signals when the last one is in.
type batchCaller struct {
	left     atomic.Int32
	done     chan struct{}
	answered *atomic.Uint64
}

func (c *batchCaller) OnResult(clockwork.Result) {
	c.answered.Add(1)
	if c.left.Add(-1) == 0 {
		c.done <- struct{}{}
	}
}

// TestShardedLiveKeepsSLO serves a sharded control plane live at a
// high speed multiplier under pipelined load — 16 callers, each
// injecting 32 submissions per turn and waiting for all 32 answers, as
// clockwork-loadgen -transport stream -batch 32 drives the daemon — and
// then holds it to the paper's promise: no success is reported past its
// SLO, and every request that arrived got exactly one outcome.
func TestShardedLiveKeepsSLO(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys, err := clockwork.New(clockwork.Config{Workers: 4, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			models, err := sys.RegisterCopies("resnet50_v1b", "resnet50_v1b", 8)
			if err != nil {
				t.Fatal(err)
			}
			live := sys.StartLive(500)
			defer live.Stop()

			const callers, batch = 16, 32
			var answered atomic.Uint64
			deadline := time.Now().Add(1500 * time.Millisecond)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					bc := &batchCaller{done: make(chan struct{}, 1), answered: &answered}
					for turn := 0; time.Now().Before(deadline); turn++ {
						req := clockwork.Request{Model: models[(c+turn)%len(models)], SLO: 500 * time.Millisecond}
						bc.left.Store(batch)
						if !live.Inject(func() {
							for i := 0; i < batch; i++ {
								if err := sys.SubmitRequestSink(0, req, bc); err != nil {
									t.Errorf("SubmitRequestSink: %v", err)
									bc.OnResult(clockwork.Result{})
								}
							}
						}) {
							t.Error("Inject refused while live")
							return
						}
						<-bc.done
					}
				}(c)
			}
			wg.Wait() // drained: every caller has every answer

			var sum clockwork.Summary
			if err := live.Do(func() { sum = sys.Summary() }); err != nil {
				t.Fatal(err)
			}
			if sum.Requests < callers*batch {
				t.Fatalf("only %d requests served", sum.Requests)
			}
			if sum.SLOMisses != 0 {
				t.Errorf("%d of %d successes reported past their SLO", sum.SLOMisses, sum.Succeeded)
			}
			if sum.Requests != sum.Arrived || sum.Requests != answered.Load() {
				t.Errorf("%d outcomes for %d arrivals, %d answers seen by the callers: want all equal",
					sum.Requests, sum.Arrived, answered.Load())
			}
		})
	}
}
