package core

import (
	"testing"
	"time"

	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
)

// Regression tests for subtle scheduling behaviours discovered during
// the reproduction (each was a real bug at some point).

// The scheduler must not pull ExecFreeAt back when an action is
// rejected: doing so lets new work jump ahead of already-queued actions
// and triggers a self-sustaining reject cascade (see controller.go).
func TestNoRejectCascadeUnderChurn(t *testing.T) {
	cl := testCluster(t, ClusterConfig{
		Workers: 1, GPUsPerWorker: 1,
		PageCacheBytes: 20 * 7 * 16 * 1024 * 1024, // 20 ResNet50s
	})
	names, _ := cl.RegisterCopies("m", modelzoo.ResNet50(), 60)
	// Skewless round-robin over 60 models on a 20-model cache: constant
	// cold-start churn.
	i := 0
	var loop func(n int)
	loop = func(n int) {
		if n >= 2000 {
			return
		}
		submitFn(cl, names[i%len(names)], 100*time.Millisecond, nil)
		i++
		cl.Eng.ScheduleRun(cl.Eng.Now().Add(2*time.Millisecond), simclock.Func(func() { loop(n + 1) }))
	}
	loop(0)
	cl.RunFor(6 * time.Second)

	st := cl.Ctl.Stats()
	// Worker-side rejections (timing mispredictions) must stay a small
	// fraction of requests — the paper sees 4,511 in 140M; cascades
	// show up here as tens of percent.
	if frac := float64(st.Rejected) / float64(st.Requests); frac > 0.05 {
		t.Fatalf("%.1f%% of requests rejected by workers — cascade", 100*frac)
	}
	if st.Succeeded == 0 {
		t.Fatal("nothing succeeded")
	}
}

// An INFER whose window opens at a LOAD's predicted completion must not
// race the transfer: the ETA includes a network allowance.
func TestInferNeverRacesLoadETA(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())
	notLoaded := 0
	for i := 0; i < 50; i++ {
		// Cold start each round: force eviction by unloading via a
		// second model… simpler: fresh cluster per-iteration would be
		// slow; instead rely on the first cold start being scheduled
		// against the load ETA.
		submitFn(cl, "m", 100*time.Millisecond, func(r Response, _ time.Duration) {
			if !r.Success && r.Reason == ReasonRejected {
				notLoaded++
			}
		})
		cl.RunFor(50 * time.Millisecond)
	}
	if notLoaded != 0 {
		t.Fatalf("%d requests rejected racing their LOAD", notLoaded)
	}
}

// Cancelled requests must release their queue slots and demand so the
// load-priority accounting never goes negative or leaks.
func TestDemandAccountingUnderCancellation(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())
	for i := 0; i < 200; i++ {
		submitFn(cl, "m", time.Millisecond, nil) // all unmeetable
	}
	cl.RunFor(time.Second)
	mi, _ := cl.Ctl.Model("m")
	if mi.QueuedCount() != 0 {
		t.Fatalf("queue leaked %d requests", mi.QueuedCount())
	}
	if mi.Demand() != 0 {
		t.Fatalf("demand leaked %v", mi.Demand())
	}
	if cl.Ctl.active != 0 {
		t.Fatalf("active count leaked: %d", cl.Ctl.active)
	}
	if simclock.Time(0) != 0 { // keep simclock import honest
		t.Fatal("unreachable")
	}
}
