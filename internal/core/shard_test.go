package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"clockwork/internal/modelzoo"
)

// newShardedCluster builds a Shards=N cluster with one ResNet50 copy
// per model name, using exact timing so tests are schedule-stable.
func newShardedCluster(t *testing.T, shards, workers, models int) (*Cluster, []string) {
	t.Helper()
	cl := NewCluster(ClusterConfig{
		Workers:       workers,
		GPUsPerWorker: 1,
		Shards:        shards,
		NewScheduler:  func() Scheduler { return NewClockworkScheduler() },
		NoNoise:       true,
		Seed:          1,
	})
	names := make([]string, models)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		if err := cl.RegisterModel(names[i], modelzoo.ResNet50()); err != nil {
			t.Fatal(err)
		}
	}
	return cl, names
}

// TestShardedClusterServes covers the tentpole end to end: a Shards=4
// cluster must answer every request exactly once, mint globally unique
// request IDs across shards, spread model ownership, and attribute
// per-shard metrics bins that sum to the totals.
func TestShardedClusterServes(t *testing.T) {
	const shards, workers, models, perModel = 4, 8, 16, 6
	cl, names := newShardedCluster(t, shards, workers, models)

	owned := make(map[int]int)
	for _, n := range names {
		s, ok := cl.ShardOf(n)
		if !ok {
			t.Fatalf("ShardOf(%q) unknown", n)
		}
		owned[s]++
	}
	if len(owned) < 2 {
		t.Fatalf("consistent hashing put all %d models on one shard: %v", models, owned)
	}

	responses := 0
	ids := make(map[uint64]bool)
	var handles []*Handle
	for round := 0; round < perModel; round++ {
		for _, n := range names {
			h := NewHandle(ResponseFunc(func(Response, time.Duration) { responses++ }))
			if err := cl.Submit(0, SubmitSpec{Model: n, SLO: 250 * time.Millisecond}, h); err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		cl.RunFor(40 * time.Millisecond)
	}
	cl.RunFor(time.Second)

	total := models * perModel
	if responses != total {
		t.Fatalf("responses = %d, want %d", responses, total)
	}
	for _, h := range handles {
		if !h.Done() {
			t.Fatal("handle not done after drain")
		}
		if h.ID() == 0 {
			t.Fatal("request never reached a controller")
		}
		if ids[h.ID()] {
			t.Fatalf("duplicate request ID %d across shards", h.ID())
		}
		ids[h.ID()] = true
	}

	st := cl.Stats()
	if st.Requests != uint64(total) {
		t.Fatalf("aggregated stats.Requests = %d, want %d", st.Requests, total)
	}
	var binSum uint64
	for i := 0; i < cl.ShardCount(); i++ {
		binSum += cl.Metrics.ShardStats(i).Requests
	}
	if binSum != uint64(total) {
		t.Fatalf("per-shard bins sum to %d, want %d", binSum, total)
	}
}

// TestMigrationLosslessProperty is the rebalance safety property: under
// continuous load with migrations repeatedly forced between every
// engine slice, no request is lost (every submission gets a response)
// and none is duplicated (no handle's callback fires twice), and the
// cluster's aggregate accounting stays exact.
func TestMigrationLosslessProperty(t *testing.T) {
	const shards, workers, models = 4, 8, 12
	cl, names := newShardedCluster(t, shards, workers, models)

	perRequest := make(map[*Handle]int)
	var handles []*Handle
	submitted := 0
	submit := func(n string, slo time.Duration) {
		var h *Handle
		h = NewHandle(ResponseFunc(func(Response, time.Duration) { perRequest[h]++ }))
		if err := cl.Submit(0, SubmitSpec{Model: n, SLO: slo}, h); err != nil {
			t.Fatal(err)
		}
		perRequest[h] = 0
		handles = append(handles, h)
		submitted++
	}

	for round := 0; round < 30; round++ {
		// A mix of comfortable and tight SLOs so migrations interleave
		// with successes, admission cancels and timeouts.
		for i, n := range names {
			slo := 200 * time.Millisecond
			if i%3 == 0 {
				slo = 8 * time.Millisecond
			}
			submit(n, slo)
		}
		// Force migrations aggressively: rotate every model one shard
		// forward (in-flight ones refuse with ErrModelBusy — that's
		// part of the property), then let the periodic rebalancer add
		// its own moves.
		for i, n := range names {
			to := (i + round) % shards
			if err := cl.MigrateModel(n, to); err != nil && !errors.Is(err, ErrModelBusy) {
				t.Fatalf("MigrateModel(%q, %d): %v", n, to, err)
			}
		}
		cl.RebalanceOnce()
		cl.RunFor(25 * time.Millisecond)
	}
	cl.RunFor(2 * time.Second) // drain

	for h, nCalls := range perRequest {
		if nCalls != 1 {
			t.Fatalf("request %d answered %d times (resp=%v)", h.ID(), nCalls, h.resp)
		}
		if !h.Done() {
			t.Fatalf("request %d has no outcome", h.ID())
		}
	}
	st := cl.Stats()
	if st.Requests != uint64(submitted) {
		t.Fatalf("stats.Requests = %d, want %d", st.Requests, submitted)
	}
	answered := st.Succeeded + st.Cancelled + st.Rejected + st.WorkerLost + st.Unregistered
	if answered != uint64(submitted) {
		t.Fatalf("outcome counters sum to %d, want %d (%+v)", answered, submitted, st)
	}
	if cl.Migrations() == 0 {
		t.Fatal("property test performed no migrations — not exercising the rebalance path")
	}
}

// TestShardedDeterminism: equal seeds must give byte-identical outcome
// streams on a sharded cluster, including the rebalancer's migrations.
func TestShardedDeterminism(t *testing.T) {
	run := func() (string, uint64) {
		cl := NewCluster(ClusterConfig{
			Workers:           4,
			GPUsPerWorker:     1,
			Shards:            2,
			NewScheduler:      func() Scheduler { return NewClockworkScheduler() },
			Seed:              7,
			RebalanceInterval: 20 * time.Millisecond,
			// Tight tolerance so the periodic rebalancer actually fires.
			RebalanceFactor: 1.01,
		})
		names := make([]string, 8)
		for i := range names {
			names[i] = fmt.Sprintf("d%d", i)
			if err := cl.RegisterModel(names[i], modelzoo.ResNet50()); err != nil {
				t.Fatal(err)
			}
		}
		var log string
		for round := 0; round < 20; round++ {
			// Skew the load: shard demand concentrates on few models, so
			// the rebalancer has real work.
			for i := 0; i < 6; i++ {
				n := names[i%2]
				if round%2 == 1 {
					n = names[2+i%3]
				}
				submitFn(cl, n, 100*time.Millisecond, func(r Response, l time.Duration) {
					log += fmt.Sprintf("%d:%s:%v:%v\n", r.RequestID, r.Model, r.Success, l)
				})
			}
			cl.RunFor(10 * time.Millisecond)
		}
		cl.RunFor(time.Second)
		return log, cl.Migrations()
	}
	log1, mig1 := run()
	log2, mig2 := run()
	if log1 != log2 {
		t.Fatal("sharded outcome streams diverged across equal-seed runs")
	}
	if mig1 != mig2 {
		t.Fatalf("migration counts diverged: %d vs %d", mig1, mig2)
	}
}

// TestRebalancerMovesSkewedDemand drives all load at models owned by
// one shard and checks the periodic rebalancer migrates some of them
// toward the idle shards.
func TestRebalancerMovesSkewedDemand(t *testing.T) {
	cl := NewCluster(ClusterConfig{
		Workers:           4,
		GPUsPerWorker:     1,
		Shards:            2,
		NewScheduler:      func() Scheduler { return NewClockworkScheduler() },
		NoNoise:           true,
		Seed:              1,
		RebalanceInterval: 10 * time.Millisecond,
	})
	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		if err := cl.RegisterModel(names[i], modelzoo.ResNet50()); err != nil {
			t.Fatal(err)
		}
	}
	target, _ := cl.ShardOf(names[0])
	var hot []string
	for _, n := range names {
		if s, _ := cl.ShardOf(n); s == target {
			hot = append(hot, n)
		}
	}
	if len(hot) < 2 {
		t.Skipf("hash placed %d models on shard %d; need ≥2", len(hot), target)
	}
	// Keep the owning shard's queues deep so the periodic ticks see a
	// one-sided demand distribution.
	for round := 0; round < 30; round++ {
		for _, n := range hot {
			for i := 0; i < 20; i++ {
				submitFn(cl, n, 2*time.Second, nil)
			}
		}
		cl.RunFor(10 * time.Millisecond)
	}
	if cl.Migrations() == 0 {
		t.Fatal("rebalancer never migrated despite one-sided demand")
	}
	moved := 0
	for _, n := range hot {
		if s, _ := cl.ShardOf(n); s != target {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no hot model moved off the overloaded shard")
	}
}

// TestRebalancerSkipsDeadShards: a shard whose workers are all drained
// has no schedulable capacity, so the rebalancer must never choose it
// as a migration target — and must evacuate the stranded models of a
// dead shard toward live ones.
func TestRebalancerSkipsDeadShards(t *testing.T) {
	cl := NewCluster(ClusterConfig{
		Workers:           4,
		GPUsPerWorker:     1,
		Shards:            2,
		NewScheduler:      func() Scheduler { return NewClockworkScheduler() },
		NoNoise:           true,
		Seed:              1,
		RebalanceInterval: 10 * time.Millisecond,
	})
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		if err := cl.RegisterModel(names[i], modelzoo.ResNet50()); err != nil {
			t.Fatal(err)
		}
	}

	// Kill shard 1's capacity (workers 1 and 3 stripe onto it).
	if err := cl.DrainWorker(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.DrainWorker(3); err != nil {
		t.Fatal(err)
	}

	// Deep one-sided demand on shard 0's models: without the capacity
	// check this is exactly the skew that would push models onto the
	// dead shard 1.
	var shard0 []string
	for _, n := range names {
		if s, _ := cl.ShardOf(n); s == 0 {
			shard0 = append(shard0, n)
		}
	}
	for round := 0; round < 30; round++ {
		for _, n := range shard0 {
			for i := 0; i < 20; i++ {
				submitFn(cl, n, 2*time.Second, nil)
			}
		}
		cl.RunFor(10 * time.Millisecond)
	}
	for _, n := range shard0 {
		if s, _ := cl.ShardOf(n); s != 0 {
			t.Fatalf("model %s migrated onto the dead shard", n)
		}
	}

	// The reverse direction is the automatic failover: queued demand
	// stranded on the dead shard must migrate toward live capacity.
	// Let shard 0's backlog drain first so the skew points at shard 1.
	cl.RunFor(5 * time.Second)
	var shard1 []string
	for _, n := range names {
		if s, _ := cl.ShardOf(n); s == 1 {
			shard1 = append(shard1, n)
		}
	}
	if len(shard1) == 0 {
		t.Skip("hash placed no model on shard 1")
	}
	for _, n := range shard1 {
		for i := 0; i < 20; i++ {
			submitFn(cl, n, 2*time.Second, nil)
		}
	}
	cl.RunFor(100 * time.Millisecond)
	evacuated := 0
	for _, n := range shard1 {
		if s, _ := cl.ShardOf(n); s == 0 {
			evacuated++
		}
	}
	if evacuated == 0 {
		t.Fatal("rebalancer left every stranded model on the dead shard")
	}
}

// TestShardGeometryValidation: more shards than workers (a shard with
// zero GPUs could never serve its models) and a shared scheduler
// instance across shards are construction-time errors.
func TestShardGeometryValidation(t *testing.T) {
	if _, err := NewClusterWithPolicy("", ClusterConfig{Workers: 2, Shards: 4}); err == nil {
		t.Fatal("want error for Shards > Workers")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("want panic for single Scheduler instance with Shards > 1")
			}
		}()
		NewCluster(ClusterConfig{
			Workers: 4, Shards: 2,
			Scheduler: NewClockworkScheduler(),
		})
	}()
}

// TestShardedControlPlaneRouting: worker lifecycle and model retirement
// must route to the owning shard on a sharded cluster.
func TestShardedControlPlaneRouting(t *testing.T) {
	cl, names := newShardedCluster(t, 2, 4, 4)

	// Workers stripe across shards by id mod Shards.
	if err := cl.DrainWorker(1); err != nil {
		t.Fatal(err)
	}
	if st, err := cl.WorkerStateOf(1); err != nil || st != WorkerDraining {
		t.Fatalf("WorkerStateOf(1) = %v, %v", st, err)
	}
	if err := cl.FailWorker(2); err != nil {
		t.Fatal(err)
	}
	if st, _ := cl.WorkerStateOf(2); st != WorkerFailed {
		t.Fatalf("worker 2 state = %v, want failed", st)
	}
	if err := cl.DrainWorker(99); !errors.Is(err, ErrNoSuchWorker) {
		t.Fatalf("want ErrNoSuchWorker, got %v", err)
	}

	// Unregister routes to the owner and scrubs cluster bookkeeping.
	if err := cl.UnregisterModel(names[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := cl.ShardOf(names[0]); ok {
		t.Fatal("unregistered model still owned")
	}
	if err := submitFn(cl, names[0], time.Second, nil); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("want ErrUnknownModel after unregister, got %v", err)
	}
	// And the remaining models still serve.
	okResp := false
	submitFn(cl, names[1], time.Second, func(r Response, _ time.Duration) { okResp = r.Success })
	cl.RunFor(2 * time.Second)
	if !okResp {
		t.Fatal("surviving model failed to serve after control-plane churn")
	}
}

// TestMigrateCarriesQueuedCancel: a request that migrates while queued
// can still be cancelled through its handle (routing follows the
// model), and a cancelled/migrated request is answered exactly once.
// The setup is the natural operational story for manual migration:
// the owning shard's only worker is drained, stranding the queued
// request, and migration hands the model to a shard with capacity.
func TestMigrateCarriesQueuedCancel(t *testing.T) {
	cl, names := newShardedCluster(t, 2, 2, 4)
	victim := names[0]
	from, _ := cl.ShardOf(victim)
	// Worker IDs stripe by id mod Shards, so worker `from` is the
	// owning shard's only worker; draining it strands the model's
	// queue with no schedulable GPU (and no in-flight actions, so the
	// model stays migratable).
	if err := cl.DrainWorker(from); err != nil {
		t.Fatal(err)
	}
	calls := 0
	var resp Response
	h := NewHandle(ResponseFunc(func(r Response, _ time.Duration) { calls++; resp = r }))
	if err := cl.Submit(0, SubmitSpec{Model: victim, SLO: time.Minute}, h); err != nil {
		t.Fatal(err)
	}
	cl.RunFor(10 * time.Millisecond) // arrives; queued, unservable
	if h.Done() {
		t.Fatal("request answered with the owning shard drained")
	}
	to := (from + 1) % 2
	if err := cl.MigrateModel(victim, to); err != nil {
		t.Fatal(err)
	}
	if s, _ := cl.ShardOf(victim); s != to {
		t.Fatalf("owner = %d, want %d", s, to)
	}
	if h.Done() {
		t.Fatal("queued request answered by migration itself")
	}
	if !h.Cancel() {
		t.Fatal("post-migration cancel did not take effect")
	}
	cl.RunFor(time.Second)
	if calls != 1 {
		t.Fatalf("request answered %d times", calls)
	}
	if resp.Success || resp.Reason != ReasonCancelled {
		t.Fatalf("want cancelled outcome, got %+v", resp)
	}

	// The migrated model now serves on its new shard.
	served := false
	submitFn(cl, victim, time.Second, func(r Response, _ time.Duration) { served = r.Success })
	cl.RunFor(2 * time.Second)
	if !served {
		t.Fatal("migrated model failed to serve on its new shard")
	}
}
