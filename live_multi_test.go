package clockwork_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"clockwork"
)

// newMultiSystem builds an EnginePerShard system with one worker per
// shard and models "m0".."m<n-1>" registered round-robin, then starts
// the live driver.
func newMultiSystem(t *testing.T, shards, models int, speed float64) (*clockwork.System, *clockwork.Live) {
	t.Helper()
	sys, err := clockwork.New(clockwork.Config{
		Workers:        shards,
		Shards:         shards,
		EnginePerShard: true,
		ExactTiming:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < models; i++ {
		if err := sys.RegisterModel(fmt.Sprintf("m%d", i), "resnet50_v1b"); err != nil {
			t.Fatal(err)
		}
	}
	live := sys.StartLive(speed)
	t.Cleanup(live.Stop)
	return sys, live
}

// TestMultiLiveSubmitAllShards drives requests at every model of a
// 4-shard engine-per-shard system through shard-routed injection and
// waits for each outcome — the end-to-end path of the multi-core
// serving plane.
func TestMultiLiveSubmitAllShards(t *testing.T) {
	const shards, models, perModel = 4, 8, 5
	sys, live := newMultiSystem(t, shards, models, 1000)

	if !live.MultiEngine() {
		t.Fatal("EnginePerShard system did not start a multi-engine driver")
	}

	handles := make(chan clockwork.Handle, models*perModel)
	for i := 0; i < models; i++ {
		model := fmt.Sprintf("m%d", i)
		shard, ok := sys.OwnerShard(model)
		if !ok {
			t.Fatalf("OwnerShard(%q) unknown", model)
		}
		for j := 0; j < perModel; j++ {
			if !live.InjectOn(shard, func() {
				h, err := sys.SubmitRequest(clockwork.Request{Model: model, SLO: time.Second}, nil)
				if err != nil {
					t.Errorf("SubmitRequest(%s) on shard %d: %v", model, shard, err)
					handles <- clockwork.Handle{}
					return
				}
				handles <- h
			}) {
				t.Fatalf("InjectOn(%d) refused while driver running", shard)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	succeeded := 0
	for i := 0; i < models*perModel; i++ {
		select {
		case h := <-handles:
			if h == (clockwork.Handle{}) {
				continue
			}
			res, err := h.Wait(ctx)
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if res.Success {
				succeeded++
			}
		case <-ctx.Done():
			t.Fatal("timed out collecting handles")
		}
	}
	if succeeded == 0 {
		t.Fatal("no request succeeded on the multi-engine system")
	}

	// A barrier snapshot sees consistent whole-cluster metrics.
	var sum clockwork.Summary
	if err := live.Do(func() { sum = sys.Summary() }); err != nil {
		t.Fatal(err)
	}
	if sum.Requests != models*perModel {
		t.Fatalf("Summary.Requests = %d, want %d", sum.Requests, models*perModel)
	}
	if sum.Succeeded != uint64(succeeded) {
		t.Fatalf("Summary.Succeeded = %d, client saw %d", sum.Succeeded, succeeded)
	}
}

// TestMultiLiveStaleShardForwards submits on the WRONG shard on
// purpose: the submission must be forwarded to the owner cross-shard
// and still complete (this is the path a stale routing hint takes after
// a migration).
func TestMultiLiveStaleShardForwards(t *testing.T) {
	sys, live := newMultiSystem(t, 2, 2, 1000)

	shard, ok := sys.OwnerShard("m0")
	if !ok {
		t.Fatal("OwnerShard(m0) unknown")
	}
	wrong := 1 - shard

	rc := make(chan clockwork.Result, 1)
	if !live.InjectOn(wrong, func() {
		err := sys.SubmitRequestSink(wrong, clockwork.Request{Model: "m0", SLO: time.Second}, sinkFunc(func(r clockwork.Result) { rc <- r }))
		if err != nil {
			t.Errorf("SubmitRequestSink(wrong shard): %v", err)
			close(rc)
		}
	}) {
		t.Fatal("InjectOn refused while driver running")
	}
	var res clockwork.Result
	select {
	case r, ok := <-rc:
		if !ok {
			t.FailNow()
		}
		res = r
	case <-time.After(20 * time.Second):
		t.Fatal("forwarded submission never completed")
	}
	if !res.Success {
		t.Fatalf("forwarded submission failed: %+v", res)
	}
}

// TestMultiLiveInjectAfterStop: injection on a stopped multi-engine
// driver reports refusal instead of silently dropping the function, and
// Do reports ErrLiveStopped.
func TestMultiLiveInjectAfterStop(t *testing.T) {
	_, live := newMultiSystem(t, 2, 0, 1000)
	live.Stop()
	if live.InjectOn(1, func() { t.Error("fn ran after Stop") }) {
		t.Fatal("InjectOn reported accepted after Stop")
	}
	aborted := false
	live.InjectOrAbortOn(0, func() { t.Error("fn ran after Stop") }, func() { aborted = true })
	if !aborted {
		t.Fatal("InjectOrAbortOn after Stop did not run the abort hook")
	}
	if err := live.Do(func() {}); err != clockwork.ErrLiveStopped {
		t.Fatalf("Do after Stop: %v, want ErrLiveStopped", err)
	}
}

// TestMultiLiveRunForPanics: the simulation entry points are rejected
// on an engine-per-shard system — there is no single deterministic
// clock to step.
func TestMultiLiveRunForPanics(t *testing.T) {
	sys, err := clockwork.New(clockwork.Config{Workers: 2, Shards: 2, EnginePerShard: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RunFor on an EnginePerShard system did not panic")
		}
	}()
	sys.RunFor(time.Second)
}

// TestMultiLiveRebalance concentrates every model on shard 0 (a
// barrier-protected whole-cluster mutation), drives sustained load at
// them, and expects the wall-clock rebalancer to migrate models back
// toward the idle shard under the barrier (Migrations grow past the
// manual ones).
func TestMultiLiveRebalance(t *testing.T) {
	sys, err := clockwork.New(clockwork.Config{
		Workers:        2,
		Shards:         2,
		EnginePerShard: true,
		ExactTiming:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const models = 6
	names := make([]string, models)
	for i := 0; i < models; i++ {
		names[i] = fmt.Sprintf("m%d", i)
		if err := sys.RegisterModel(names[i], "resnet50_v1b"); err != nil {
			t.Fatal(err)
		}
	}
	live := sys.StartLive(20)
	defer live.Stop()

	// Pile every model onto shard 0 so demand skews maximally.
	var manual uint64
	if err := live.Do(func() {
		for _, name := range names {
			if merr := sys.MigrateModel(name, 0); merr != nil {
				t.Errorf("MigrateModel(%s, 0): %v", name, merr)
			}
		}
		manual = sys.Migrations()
	}); err != nil {
		t.Fatal(err)
	}

	// 60s is generous headroom for the race detector on a loaded 1-core
	// machine; unloaded, migration happens within the first few ticks.
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		migrated := uint64(0)
		if err := live.Do(func() { migrated = sys.Migrations() }); err != nil {
			t.Fatalf("Do: %v", err)
		}
		if migrated > manual {
			return // the wall-clock rebalancer moved a model off the hot shard
		}
		// Keep shard 0's queues deep: demand is summed over queued work.
		live.InjectOn(0, func() {
			for _, name := range names {
				for k := 0; k < 20; k++ {
					_ = sys.SubmitRequestSink(0, clockwork.Request{Model: name, SLO: 30 * time.Second}, nil)
				}
			}
		})
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("rebalancer never migrated a model on the multi-engine system")
}
