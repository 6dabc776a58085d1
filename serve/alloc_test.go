package serve

import (
	"context"
	"testing"
	"time"

	"clockwork"
)

// Allocation ratchets: hard ceilings on steady-state allocs per request
// for the hot paths this package owns. These run as ordinary tests
// (CI runs them on every push), so a regression that re-introduces
// per-request garbage fails the build instead of silently eroding the
// engine floor. The ceilings are set a small margin above the measured
// steady state to absorb runtime noise — background driver pacing, GC
// bookkeeping — not to leave room for new per-request allocations.
const (
	// liveAllocCeiling bounds one Inject → Wait → Release round trip on
	// the live engine (measured: 0 allocs/op; ISSUE-10 target ≤ 12).
	liveAllocCeiling = 4.0
	// streamAllocCeiling bounds one sequential stream-transport round
	// trip, client and server included (measured: 0 allocs/op).
	streamAllocCeiling = 4.0
	// streamBatchAllocCeiling bounds one SubmitBatch of streamBatchSize
	// requests, client and server included (measured: 3 allocs/batch —
	// the client's per-batch call, correlation and outcome slices).
	streamBatchAllocCeiling = 7.0
	streamBatchSize         = 64
	// httpAllocCeiling bounds one sequential HTTP/JSON round trip,
	// client and server included (measured: 87 allocs/op, nearly all of
	// them net/http internals; the infer codec leaves the client's
	// request body and the decoded model name. Every body through the
	// encoding/json fallback reads 99).
	httpAllocCeiling = 92.0
)

// TestAllocRatchetLiveRoundTrip pins the engine floor: submit on the
// live driver, wait for the outcome, release the handle. The lifecycle
// recycles requests, handles, actions and timers through free lists, so
// the steady state allocates nothing per request.
func TestAllocRatchetLiveRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ratchet skipped in -short")
	}
	sys, err := clockwork.New(clockwork.Config{Workers: 1, GPUsPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	live := sys.StartLive(10_000)
	defer live.Stop()
	ctx := context.Background()

	var h clockwork.Handle
	var serr error
	submit := func() {
		h, serr = sys.SubmitRequest(clockwork.Request{Model: "m", SLO: time.Second}, nil)
	}
	fire := func() {
		if doErr := live.Do(submit); doErr != nil {
			t.Fatal(doErr)
		}
		if serr != nil {
			t.Fatal(serr)
		}
		if _, werr := h.Wait(ctx); werr != nil {
			t.Fatal(werr)
		}
		h.Release()
	}
	// Warm: model onto a GPU, pools populated, driver in steady state.
	for i := 0; i < 50; i++ {
		fire()
	}
	if avg := testing.AllocsPerRun(200, fire); avg > liveAllocCeiling {
		t.Fatalf("live round trip allocates %.1f objects/op, ratchet ceiling is %.1f", avg, liveAllocCeiling)
	}
}

// TestAllocRatchetStreamRoundTrip pins the stream transport over a
// loopback binary-frame connection, counting allocations across the
// whole process (server connection goroutines included — frames, calls,
// sinks and responses all pool). Two inputs: one sequential Infer, and
// one SubmitBatch of streamBatchSize requests on
// BenchmarkStreamBatchRoundTrip's geometry.
func TestAllocRatchetStreamRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ratchet skipped in -short")
	}
	ctx := context.Background()
	t.Run("sequential", func(t *testing.T) {
		_, client, _ := newBenchStreamServer(t, 1, 1)
		fire := func() {
			res, err := client.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Success {
				t.Fatalf("infer failed: %+v", res)
			}
		}
		for i := 0; i < 50; i++ {
			fire()
		}
		if avg := testing.AllocsPerRun(200, fire); avg > streamAllocCeiling {
			t.Fatalf("stream round trip allocates %.1f objects/op, ratchet ceiling is %.1f", avg, streamAllocCeiling)
		}
	})
	t.Run("batch", func(t *testing.T) {
		if raceEnabled {
			// Under the race detector sync.Pool drops puts at random,
			// so a batch's pooled frames are reallocated: ~100 allocs.
			t.Skip("batched stream allocation ratchet skipped under the race detector")
		}
		_, client, models := newBenchStreamServer(t, 1, 4)
		reqs := make([]clockwork.Request, streamBatchSize)
		for i := range reqs {
			reqs[i] = clockwork.Request{Model: models[i%len(models)], SLO: time.Second}
		}
		fire := func() {
			outs, err := client.SubmitBatch(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				// As in the benchmark, an engine-level rejection is a
				// valid round trip; only a transport failure is not.
				if o.Err != nil {
					t.Fatalf("batched infer transport failure: %v", o.Err)
				}
			}
		}
		for i := 0; i < 20; i++ {
			fire()
		}
		avg := testing.AllocsPerRun(100, fire)
		t.Logf("stream batch of %d: %.1f allocs/batch", streamBatchSize, avg)
		if avg > streamBatchAllocCeiling {
			t.Fatalf("stream batch allocates %.1f objects/batch, ratchet ceiling is %.1f", avg, streamBatchAllocCeiling)
		}
	})
}

// TestAllocRatchetHTTPRoundTrip pins the HTTP/JSON front door the same
// way: one sequential Infer over loopback HTTP, counting allocations
// across the whole process (client, net/http, handler and engine).
func TestAllocRatchetHTTPRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ratchet skipped in -short")
	}
	if raceEnabled {
		// Under the race detector sync.Pool drops puts at random, so
		// net/http's pooled buffers are reallocated: 111 allocs/op.
		t.Skip("HTTP allocation ratchet skipped under the race detector")
	}
	_, client := newTestServer(t, clockwork.Config{Workers: 1, GPUsPerWorker: 2}, 10_000)
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	fire := func() {
		res, err := client.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("infer failed: %+v", res)
		}
	}
	for i := 0; i < 50; i++ {
		fire()
	}
	avg := testing.AllocsPerRun(200, fire)
	t.Logf("HTTP round trip: %.1f allocs/op", avg)
	if avg > httpAllocCeiling {
		t.Fatalf("HTTP round trip allocates %.1f objects/op, ratchet ceiling is %.1f", avg, httpAllocCeiling)
	}
}
