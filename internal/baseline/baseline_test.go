package baseline

import (
	"testing"
	"time"

	"clockwork/internal/core"
	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
)

// submitFn submits a default-options request for model with fn (may be
// nil) as its completion.
func submitFn(cl *core.Cluster, model string, slo time.Duration, fn func(core.Response, time.Duration)) {
	var sink core.ResponseSink
	if fn != nil {
		sink = core.ResponseFunc(fn)
	}
	cl.Submit(0, core.SubmitSpec{Model: model, SLO: slo}, sink)
}

func clipperCluster() *core.Cluster {
	return core.NewCluster(core.ClusterConfig{
		Workers: 1, GPUsPerWorker: 1,
		Scheduler:        NewClipper(),
		WorkerBestEffort: true,
		Controller:       core.Config{DisableAdmissionControl: true},
		NoNoise:          true,
	})
}

func infaasCluster() *core.Cluster {
	return core.NewCluster(core.ClusterConfig{
		Workers: 1, GPUsPerWorker: 1,
		Scheduler:  NewINFaaS(),
		Controller: core.Config{DisableAdmissionControl: true},
		NoNoise:    true,
	})
}

func TestClipperServesRequests(t *testing.T) {
	cl := clipperCluster()
	cl.RegisterModel("m", modelzoo.ResNet50())
	ok := 0
	for i := 0; i < 20; i++ {
		submitFn(cl, "m", 100*time.Millisecond, func(r core.Response, _ time.Duration) {
			if r.Success {
				ok++
			}
		})
		cl.RunFor(10 * time.Millisecond)
	}
	cl.RunFor(time.Second)
	if ok != 20 {
		t.Fatalf("served %d/20", ok)
	}
}

func TestClipperNeverCancels(t *testing.T) {
	cl := clipperCluster()
	cl.RegisterModel("m", modelzoo.ResNet50())
	late, ok := 0, 0
	// An unmeetable SLO: Clockwork would cancel; Clipper executes late.
	for i := 0; i < 10; i++ {
		submitFn(cl, "m", time.Millisecond, func(r core.Response, l time.Duration) {
			if r.Success {
				ok++
				if l > time.Millisecond {
					late++
				}
			}
		})
	}
	cl.RunFor(2 * time.Second)
	if ok != 10 {
		t.Fatalf("served %d/10", ok)
	}
	if late != 10 {
		t.Fatalf("expected all 10 to be served late, got %d", late)
	}
	if cl.Ctl.Stats().Cancelled != 0 {
		t.Fatal("baselines must not cancel in advance")
	}
}

func TestClipperBatchesUnderLoad(t *testing.T) {
	cl := clipperCluster()
	cl.RegisterModel("m", modelzoo.ResNet50())
	// Closed-loop-ish sustained pressure grows the AIMD batch over time.
	sawBatch := false
	var loop func(i int)
	loop = func(i int) {
		if i > 4000 {
			return
		}
		for j := 0; j < 4; j++ {
			submitFn(cl, "m", 500*time.Millisecond, func(r core.Response, _ time.Duration) {
				if r.Success && r.Batch > 1 {
					sawBatch = true
				}
			})
		}
		cl.Eng.ScheduleRun(cl.Eng.Now().Add(2*time.Millisecond), simclock.Func(func() { loop(i + 1) }))
	}
	loop(0)
	cl.RunFor(3 * time.Second)
	if !sawBatch {
		t.Fatal("AIMD batching never exceeded batch 1 under sustained load")
	}
}

func TestClipperStaticPlacement(t *testing.T) {
	cl := core.NewCluster(core.ClusterConfig{
		Workers: 2, GPUsPerWorker: 1,
		Scheduler:        NewClipper(),
		WorkerBestEffort: true,
		Controller:       core.Config{DisableAdmissionControl: true},
		NoNoise:          true,
	})
	cl.RegisterModel("a", modelzoo.ResNet50())
	cl.RegisterModel("b", modelzoo.ResNet50())
	submitFn(cl, "a", 100*time.Millisecond, nil)
	submitFn(cl, "b", 100*time.Millisecond, nil)
	cl.RunFor(500 * time.Millisecond)
	// Round-robin: the two models land on different GPUs.
	miA, _ := cl.Ctl.Model("a")
	miB, _ := cl.Ctl.Model("b")
	for _, ga := range miA.ResidentOn() {
		for _, gb := range miB.ResidentOn() {
			if ga == gb {
				t.Fatal("round-robin placement put both models on one GPU")
			}
		}
	}
}

func TestINFaaSServesRequests(t *testing.T) {
	cl := infaasCluster()
	cl.RegisterModel("m", modelzoo.ResNet50())
	ok := 0
	for i := 0; i < 20; i++ {
		submitFn(cl, "m", 100*time.Millisecond, func(r core.Response, _ time.Duration) {
			if r.Success {
				ok++
			}
		})
		cl.RunFor(10 * time.Millisecond)
	}
	cl.RunFor(time.Second)
	if ok != 20 {
		t.Fatalf("served %d/20", ok)
	}
}

func TestINFaaSVariantSelectionRespectsSLO(t *testing.T) {
	cl := infaasCluster()
	cl.RegisterModel("m", modelzoo.ResNet50())
	// Generous SLO: expect large batches under a burst.
	batches := map[int]int{}
	// Warm first.
	submitFn(cl, "m", 500*time.Millisecond, nil)
	cl.RunFor(100 * time.Millisecond)
	for i := 0; i < 32; i++ {
		submitFn(cl, "m", 500*time.Millisecond, func(r core.Response, _ time.Duration) {
			if r.Success {
				batches[r.Batch]++
			}
		})
	}
	cl.RunFor(time.Second)
	sawLarge := false
	for b := range batches {
		if b >= 8 {
			sawLarge = true
		}
	}
	if !sawLarge {
		t.Fatalf("expected large batches with a 500ms SLO: %v", batches)
	}

	// Tight SLO: variant selection caps batch so exec fits SLO/2.
	cl2 := infaasCluster()
	cl2.RegisterModel("m", modelzoo.ResNet50())
	submitFn(cl2, "m", 10*time.Millisecond, nil)
	cl2.RunFor(100 * time.Millisecond)
	batches2 := map[int]int{}
	for i := 0; i < 32; i++ {
		submitFn(cl2, "m", 10*time.Millisecond, func(r core.Response, _ time.Duration) {
			if r.Success {
				batches2[r.Batch]++
			}
		})
	}
	cl2.RunFor(time.Second)
	for b := range batches2 {
		// 10ms SLO → exec must fit 5ms → batch ≤ 2 for ResNet50
		// (B2=3.95ms, B4=5.88ms).
		if b > 2 {
			t.Fatalf("batch %d violates variant selection for 10ms SLO: %v", b, batches2)
		}
	}
}

func TestINFaaSReactiveScaling(t *testing.T) {
	cl := core.NewCluster(core.ClusterConfig{
		Workers: 2, GPUsPerWorker: 1,
		Scheduler:  NewINFaaS(),
		Controller: core.Config{DisableAdmissionControl: true},
		NoNoise:    true,
	})
	cl.RegisterModel("m", modelzoo.ResNet50())
	// Overload one model far past the scale threshold.
	var loop func(i int)
	loop = func(i int) {
		if i > 3000 {
			return
		}
		for j := 0; j < 3; j++ {
			submitFn(cl, "m", time.Second, nil)
		}
		cl.Eng.ScheduleRun(cl.Eng.Now().Add(time.Millisecond), simclock.Func(func() { loop(i + 1) }))
	}
	loop(0)
	cl.RunFor(5 * time.Second)
	mi, _ := cl.Ctl.Model("m")
	if len(mi.ResidentOn()) < 2 {
		t.Fatalf("INFaaS should have scaled to a second replica, resident on %d", len(mi.ResidentOn()))
	}
}

func TestCompiledBatchAtMost(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 4, 7: 4, 8: 8, 15: 8, 16: 16, 100: 16, 0: 1}
	for n, want := range cases {
		if got := compiledBatchAtMost(n); got != want {
			t.Errorf("compiledBatchAtMost(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBaselineEvictionUnderPressure(t *testing.T) {
	cl := core.NewCluster(core.ClusterConfig{
		Workers: 1, GPUsPerWorker: 1,
		Scheduler:      NewClipper(),
		Controller:     core.Config{DisableAdmissionControl: true},
		NoNoise:        true,
		PageCacheBytes: 7 * 16 * 1024 * 1024, // one ResNet50
	})
	cl.RegisterModel("a", modelzoo.ResNet50())
	cl.RegisterModel("b", modelzoo.ResNet50())
	okA, okB := 0, 0
	for i := 0; i < 4; i++ {
		model, cnt := "a", &okA
		if i%2 == 1 {
			model, cnt = "b", &okB
		}
		submitFn(cl, model, time.Second, func(r core.Response, _ time.Duration) {
			if r.Success {
				*cnt++
			}
		})
		cl.RunFor(500 * time.Millisecond)
	}
	if okA != 2 || okB != 2 {
		t.Fatalf("okA=%d okB=%d", okA, okB)
	}
	if cl.Ctl.Stats().ActionsUnload == 0 {
		t.Fatal("expected evictions")
	}
}
