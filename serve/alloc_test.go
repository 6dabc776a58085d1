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
	// httpAllocCeiling bounds one sequential HTTP/JSON round trip,
	// client and server included (measured: 99 allocs/op, nearly all of
	// them net/http and encoding/json internals).
	httpAllocCeiling = 104.0
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

// TestAllocRatchetStreamRoundTrip pins the stream transport: one
// sequential Infer over a loopback binary-frame connection, counting
// allocations across the whole process (server connection goroutines
// included — frames, calls, sinks and responses all pool).
func TestAllocRatchetStreamRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ratchet skipped in -short")
	}
	_, client, _ := newBenchStreamServer(t, 1, 1)
	ctx := context.Background()
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
