package core

import (
	"testing"
	"time"

	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
)

// schedCluster builds a 1-worker cluster with the Clockwork scheduler
// exposed for direct inspection.
func schedCluster(t *testing.T, pageCacheModels int) (*Cluster, *ClockworkScheduler) {
	t.Helper()
	s := NewClockworkScheduler()
	cfg := ClusterConfig{Workers: 1, GPUsPerWorker: 1, NoNoise: true, Scheduler: s}
	if pageCacheModels > 0 {
		cfg.PageCacheBytes = int64(pageCacheModels) * 7 * 16 * 1024 * 1024
	}
	return NewCluster(cfg), s
}

func TestBestStrategyPrefersLargestFeasibleBatch(t *testing.T) {
	cl, s := schedCluster(t, 0)
	cl.RegisterModel("m", modelzoo.ResNet50())
	// Warm the model and let the system drain.
	submitFn(cl, "m", 100*time.Millisecond, nil)
	cl.RunFor(200 * time.Millisecond)

	// Pile up 16 requests while the executor is busy with a decoy so
	// the batch decision happens in one pass.
	mi, _ := cl.Ctl.Model("m")
	g := cl.Ctl.GPUs()[0]
	// Queue 16 requests "manually": submit them all at one instant.
	var batches []int
	for i := 0; i < 16; i++ {
		submitFn(cl, "m", 100*time.Millisecond, func(r Response, _ time.Duration) {
			if r.Success {
				batches = append(batches, r.Batch)
			}
		})
	}
	cl.RunFor(300 * time.Millisecond)
	_ = mi
	_ = g
	_ = s
	if len(batches) != 16 {
		t.Fatalf("served %d/16", len(batches))
	}
	max := 0
	for _, b := range batches {
		if b > max {
			max = b
		}
	}
	if max < 8 {
		t.Fatalf("largest batch %d; expected aggressive batching of a 16-burst", max)
	}
}

func TestSchedulerRespectsUncompiledBatchSizes(t *testing.T) {
	// Queue lengths that are not compiled batch sizes must round down
	// to a compiled size, never up.
	cl, _ := schedCluster(t, 0)
	cl.RegisterModel("m", modelzoo.ResNet50())
	submitFn(cl, "m", 100*time.Millisecond, nil)
	cl.RunFor(200 * time.Millisecond)

	var batches []int
	for i := 0; i < 7; i++ { // 7 → batches of 4+2+1 or similar
		submitFn(cl, "m", 100*time.Millisecond, func(r Response, _ time.Duration) {
			if r.Success {
				batches = append(batches, r.Batch)
			}
		})
	}
	cl.RunFor(300 * time.Millisecond)
	for _, b := range batches {
		switch b {
		case 1, 2, 4, 8, 16:
		default:
			t.Fatalf("uncompiled batch size %d executed", b)
		}
	}
}

func TestLoadPriorityPrefersHighDemand(t *testing.T) {
	// Two cold models, one with much more demand: the priority policy
	// must load the high-demand model first.
	cl, _ := schedCluster(t, 0)
	cl.RegisterModel("hot", modelzoo.ResNet50())
	cl.RegisterModel("cool", modelzoo.ResNet50())

	// Submit demand at one instant before the scheduler can react:
	// 1 request for cool (submitted first!), then 8 for hot.
	submitFn(cl, "cool", 100*time.Millisecond, nil)
	for i := 0; i < 8; i++ {
		submitFn(cl, "hot", 100*time.Millisecond, nil)
	}
	// Find which LOAD went first.
	var firstLoad string
	for _, w := range cl.Workers {
		_ = w
	}
	// Run one event at a time until a load begins (mirror has loading).
	g := cl.Ctl.GPUs()[0]
	hot, _ := cl.Ctl.Model("hot")
	cool, _ := cl.Ctl.Model("cool")
	for firstLoad == "" && cl.Eng.Step() {
		for _, mi := range []*ModelInfo{hot, cool} {
			if g.IsLoading(mi) {
				firstLoad = mi.Name()
				break
			}
		}
	}
	// Both submissions happen at t=0 and scheduling reacts per request:
	// after the cool request, cool is the only active model and gets a
	// LOAD slot; but once hot's demand arrives, hot must win the NEXT
	// load decision. Accept either "hot first" or "cool first then hot
	// immediately", but hot must be loading before cool finishes.
	cl.RunFor(5 * time.Millisecond)
	if !g.IsLoading(hot) && !g.Pages.Has(hot.ID()) {
		t.Fatal("high-demand model not prioritised for loading")
	}
}

func TestNextVictimSkipsLoadingAndInFlight(t *testing.T) {
	cl, s := schedCluster(t, 0)
	cl.RegisterModel("a", modelzoo.ResNet50())
	cl.RegisterModel("b", modelzoo.ResNet50())
	submitFn(cl, "a", 100*time.Millisecond, nil)
	cl.RunFor(100 * time.Millisecond) // a resident, idle

	g := cl.Ctl.GPUs()[0]
	if v := s.nextVictim(g); v == nil || v.Name() != "a" {
		t.Fatalf("victim = %v, want a", v)
	}
	// Mark a as having an in-flight INFER: no victim available.
	a, _ := cl.Ctl.Model("a")
	g.outstanding(a.id).infers = 1
	if v := s.nextVictim(g); v != nil {
		t.Fatalf("victim = %v, want none (in-flight)", v.Name())
	}
	g.outstanding(a.id).infers = 0
}

func TestLoadOldestFirstPolicy(t *testing.T) {
	s := NewClockworkScheduler()
	s.LoadSelection = LoadOldestFirst
	cl := NewCluster(ClusterConfig{Workers: 1, GPUsPerWorker: 1, NoNoise: true, Scheduler: s})
	cl.RegisterModel("m", modelzoo.ResNet50())
	ok := false
	submitFn(cl, "m", 100*time.Millisecond, func(r Response, _ time.Duration) { ok = r.Success })
	cl.RunFor(100 * time.Millisecond)
	if !ok {
		t.Fatal("oldest-first policy failed to serve")
	}
}

func TestMirrorResidentStates(t *testing.T) {
	g := newGPUMirror(0, 0, 100*16*1024*1024, 16*1024*1024)
	x := &ModelInfo{name: "x", id: 7}
	if _, ok := g.Resident(x); ok {
		t.Fatal("empty mirror should not report resident")
	}
	if err := g.Pages.Alloc(x.id, 3); err != nil {
		t.Fatal(err)
	}
	if ready, ok := g.Resident(x); !ok || ready != simclock.MinTime {
		t.Fatal("allocated model should be immediately resident")
	}
	g.outstanding(x.id).loading = simclock.Time(5 * time.Millisecond)
	if ready, ok := g.Resident(x); !ok || ready != simclock.Time(5*time.Millisecond) {
		t.Fatal("loading model should report its ETA")
	}
	if !g.IsLoading(x) {
		t.Fatal("IsLoading wrong")
	}
	if g.String() == "" {
		t.Fatal("String empty")
	}
}

func TestMirrorOutstandingWork(t *testing.T) {
	g := newGPUMirror(0, 0, 16*1024*1024, 16*1024*1024)
	now := simclock.Time(10 * time.Millisecond)
	if g.OutstandingExecWork(now) != 0 || g.OutstandingLoadWork(now) != 0 {
		t.Fatal("fresh mirror should have no outstanding work")
	}
	g.ExecFreeAt = now.Add(3 * time.Millisecond)
	g.LoadFreeAt = now.Add(7 * time.Millisecond)
	if g.OutstandingExecWork(now) != 3*time.Millisecond {
		t.Fatal("exec work wrong")
	}
	if g.OutstandingLoadWork(now) != 7*time.Millisecond {
		t.Fatal("load work wrong")
	}
}

func TestModelInfoDeadlines(t *testing.T) {
	mi := &ModelInfo{name: "m", zoo: modelzoo.ResNet50()}
	if mi.MinDeadline() != simclock.MaxTime || mi.MaxDeadline() != simclock.MinTime {
		t.Fatal("empty queue deadline sentinels wrong")
	}
	if mi.MinDeadlineOfOldest(4) != simclock.MaxTime {
		t.Fatal("empty MinDeadlineOfOldest wrong")
	}
	if mi.PeekOldest() != nil {
		t.Fatal("PeekOldest of empty queue")
	}
	mi.queue = []*Request{
		{ID: 1, deadline: simclock.Time(30)},
		{ID: 2, deadline: simclock.Time(10)},
		{ID: 3, deadline: simclock.Time(20)},
	}
	if mi.MinDeadline() != simclock.Time(10) || mi.MaxDeadline() != simclock.Time(30) {
		t.Fatal("min/max deadlines wrong")
	}
	if mi.MinDeadlineOfOldest(1) != simclock.Time(30) {
		t.Fatal("oldest-1 deadline wrong")
	}
	if mi.MinDeadlineOfOldest(2) != simclock.Time(10) {
		t.Fatal("oldest-2 deadline wrong")
	}
	if mi.PeekOldest().ID != 1 {
		t.Fatal("PeekOldest wrong")
	}
	batch := mi.PopBatch(2)
	if len(batch) != 2 || batch[0].ID != 1 || batch[1].ID != 2 {
		t.Fatalf("PopBatch wrong: %v", batch)
	}
	if mi.QueuedCount() != 1 {
		t.Fatal("queue not drained")
	}
	if !mi.removeRequest(mi.queue[0]) {
		t.Fatal("removeRequest failed")
	}
	if mi.removeRequest(&Request{}) {
		t.Fatal("removing absent request should fail")
	}
}

func TestRequestResponseStrings(t *testing.T) {
	ok := Response{RequestID: 1, Model: "m", Success: true, Batch: 4}
	if ok.String() == "" {
		t.Fatal("empty")
	}
	bad := Response{RequestID: 2, Model: "m", Reason: ReasonCancelled}
	if bad.String() == "" {
		t.Fatal("empty")
	}
}
