package core

import (
	"errors"
	"testing"
	"time"

	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
)

func testCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	cfg.NoNoise = true
	cl := NewCluster(cfg)
	return cl
}

// submitFn submits a default-options request for model with fn (may be
// nil) as its completion — the closure form most tests want.
func submitFn(cl *Cluster, model string, slo time.Duration, fn func(Result)) error {
	var sink ResultSink
	if fn != nil {
		sink = ResultFunc(fn)
	}
	return cl.Submit(SubmitSpec{Model: model, SLO: slo}, sink)
}

func TestSingleRequestColdStart(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())

	var resp Result
	var lat time.Duration
	submitFn(cl, "m", 100*time.Millisecond, func(r Result) { resp, lat = r, r.Latency })
	cl.RunFor(200 * time.Millisecond)

	if !resp.Success {
		t.Fatalf("request failed: %v", resp)
	}
	if !resp.ColdStart {
		t.Fatal("first request must be a cold start")
	}
	// Cold start: input + LOAD (8.33ms) + EXEC (2.77ms) + output +
	// network hops; the paper's round trip is ~12ms for this path.
	if lat < 11*time.Millisecond || lat > 16*time.Millisecond {
		t.Fatalf("cold-start latency = %v, want ≈11–16ms", lat)
	}
}

func TestSecondRequestIsWarm(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())

	var lats []time.Duration
	var colds []bool
	submit := func() {
		submitFn(cl, "m", 100*time.Millisecond, func(r Result) {
			lats = append(lats, r.Latency)
			colds = append(colds, r.ColdStart)
		})
	}
	submit()
	cl.RunFor(100 * time.Millisecond)
	submit()
	cl.RunFor(100 * time.Millisecond)

	if len(lats) != 2 {
		t.Fatalf("got %d responses", len(lats))
	}
	if colds[1] {
		t.Fatal("second request should be warm")
	}
	if lats[1] >= lats[0] {
		t.Fatalf("warm latency %v should beat cold %v", lats[1], lats[0])
	}
	// Warm: exec 2.77ms + IO/network ≈ 3–5ms.
	if lats[1] > 6*time.Millisecond {
		t.Fatalf("warm latency = %v, want < 6ms", lats[1])
	}
}

func TestUnmeetableSLOCancelledInAdvance(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())

	var resp Result
	got := false
	// 1ms SLO < batch-1 exec (2.77ms): provably unmeetable.
	submitFn(cl, "m", time.Millisecond, func(r Result) { resp, got = r, true })
	cl.RunFor(50 * time.Millisecond)

	if !got {
		t.Fatal("no response")
	}
	if resp.Success || resp.Reason != ReasonCancelled {
		t.Fatalf("want cancelled, got %v", resp)
	}
	st, tot := cl.Ctl.Stats(), cl.Metrics.Total
	if tot.Cancelled != 1 || st.ActionsInfer != 0 {
		t.Fatalf("stats: %+v, outcomes: %+v — no fruitless work should be scheduled", st, tot)
	}
}

func TestBatchingUnderBurst(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())

	// Warm the model.
	submitFn(cl, "m", 100*time.Millisecond, nil)
	cl.RunFor(100 * time.Millisecond)

	// A burst of 16 simultaneous requests with latitude to batch.
	batches := make(map[int]int)
	for i := 0; i < 16; i++ {
		submitFn(cl, "m", 100*time.Millisecond, func(r Result) {
			if r.Success {
				batches[r.Batch]++
			}
		})
	}
	cl.RunFor(200 * time.Millisecond)

	total := 0
	sawBatch := false
	for b, n := range batches {
		total += n
		if b > 1 {
			sawBatch = true
		}
	}
	if total != 16 {
		t.Fatalf("only %d/16 succeeded (batches: %v)", total, batches)
	}
	if !sawBatch {
		t.Fatalf("no batching under a 16-wide burst: %v", batches)
	}
}

func TestAllSuccessesMeetSLO(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())

	const slo = 50 * time.Millisecond
	violations := 0
	responses := 0
	var submitLoop func(i int)
	submitLoop = func(i int) {
		if i >= 500 {
			return
		}
		submitFn(cl, "m", slo, func(r Result) {
			responses++
			if r.Success && r.Latency > slo {
				violations++
			}
		})
		cl.Eng.ScheduleRun(cl.Eng.Now().Add(2*time.Millisecond), simclock.Func(func() { submitLoop(i + 1) }))
	}
	submitLoop(0)
	cl.RunFor(5 * time.Second)

	if responses != 500 {
		t.Fatalf("responses = %d", responses)
	}
	if violations != 0 {
		t.Fatalf("%d successful responses exceeded the SLO", violations)
	}
	// Under this modest load (500 r/s worth of capacity at batch 1),
	// nearly everything should succeed.
	tot := cl.Metrics.Total
	if tot.Succeeded < 490 {
		t.Fatalf("succeeded = %d/500 (outcomes %+v)", tot.Succeeded, tot)
	}
}

func TestEvictionUnderMemoryPressure(t *testing.T) {
	// Page cache fits one ResNet50 (7 pages); two models alternate.
	cl := testCluster(t, ClusterConfig{
		Workers: 1, GPUsPerWorker: 1,
		PageCacheBytes: 7 * 16 * 1024 * 1024,
	})
	cl.RegisterModel("a", modelzoo.ResNet50())
	cl.RegisterModel("b", modelzoo.ResNet50())

	okA, okB := 0, 0
	for i := 0; i < 4; i++ {
		model, cnt := "a", &okA
		if i%2 == 1 {
			model, cnt = "b", &okB
		}
		submitFn(cl, model, 100*time.Millisecond, func(r Result) {
			if r.Success {
				*cnt++
			}
		})
		cl.RunFor(100 * time.Millisecond)
	}
	if okA != 2 || okB != 2 {
		t.Fatalf("okA=%d okB=%d (want 2,2)", okA, okB)
	}
	st := cl.Ctl.Stats()
	if st.ActionsUnload < 3 {
		t.Fatalf("expected ≥3 UNLOADs under pressure, got %d", st.ActionsUnload)
	}
	if st.LoadFailures != 0 {
		t.Fatalf("mirror diverged: %d load failures", st.LoadFailures)
	}
}

func TestMirrorMatchesWorkerAtQuiescence(t *testing.T) {
	cl := testCluster(t, ClusterConfig{
		Workers: 1, GPUsPerWorker: 1,
		PageCacheBytes: 20 * 16 * 1024 * 1024,
	})
	names, _ := cl.RegisterCopies("resnet18_v2", modelzoo.MustByName("resnet18_v2"), 8)
	for round := 0; round < 5; round++ {
		for _, n := range names {
			submitFn(cl, n, 100*time.Millisecond, nil)
		}
		cl.RunFor(300 * time.Millisecond)
	}
	cl.RunFor(time.Second)

	mirror := cl.Ctl.GPUs()[0]
	real := cl.Workers[0].GPU(0).Pages
	if mirror.Pages.UsedPages() != real.UsedPages() {
		t.Fatalf("mirror used=%d, worker used=%d", mirror.Pages.UsedPages(), real.UsedPages())
	}
	for _, k := range mirror.Pages.Keys() {
		if !real.Has(k) {
			t.Fatalf("mirror thinks %q resident; worker disagrees", k)
		}
	}
	for _, k := range real.Keys() {
		if !mirror.Pages.Has(k) {
			t.Fatalf("worker holds %q; mirror disagrees", k)
		}
	}
}

func TestLoadBalanceAcrossWorkers(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 2, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())

	// Saturating demand on one model should eventually replicate it.
	done := 0
	var loop func()
	loop = func() {
		for i := 0; i < 8; i++ {
			submitFn(cl, "m", 20*time.Millisecond, func(r Result) {
				if r.Success {
					done++
				}
			})
		}
		if cl.Eng.Now() < simclock.Time(2*time.Second) {
			cl.Eng.ScheduleRun(cl.Eng.Now().Add(2*time.Millisecond), simclock.Func(loop))
		}
	}
	loop()
	cl.RunFor(3 * time.Second)

	mi, _ := cl.Ctl.Model("m")
	if len(mi.ResidentOn()) < 2 {
		t.Fatalf("model should be replicated to both GPUs under saturation, resident on %d", len(mi.ResidentOn()))
	}
	if done == 0 {
		t.Fatal("nothing succeeded")
	}
}

func TestPredictionErrorsAreTiny(t *testing.T) {
	// With the default noise model, Fig 9 shows p99 INFER prediction
	// error ≈ 250µs; without noise, errors should be ≈0 once profiles
	// have real measurements.
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())
	for i := 0; i < 50; i++ {
		submitFn(cl, "m", 100*time.Millisecond, nil)
		cl.RunFor(20 * time.Millisecond)
	}
	if cl.Ctl.InferDuration.Count() < 50 {
		t.Fatalf("tracked %d infer predictions", cl.Ctl.InferDuration.Count())
	}
	if over := cl.Ctl.InferDuration.Over.Max(); over > time.Millisecond {
		t.Fatalf("overprediction max %v without noise", over)
	}
	if under := cl.Ctl.InferDuration.Under.Max(); under > time.Millisecond {
		t.Fatalf("underprediction max %v without noise", under)
	}
}

func TestStatsConservation(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())
	for i := 0; i < 100; i++ {
		slo := 50 * time.Millisecond
		if i%10 == 0 {
			slo = time.Millisecond // unmeetable
		}
		submitFn(cl, "m", slo, nil)
		cl.RunFor(5 * time.Millisecond)
	}
	cl.RunFor(time.Second)
	st, tot := cl.Ctl.Stats(), cl.Metrics.Total
	if st.Requests != 100 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if tot.Succeeded+tot.Cancelled+tot.Rejected+tot.TimedOut != st.Requests {
		t.Fatalf("outcomes don't sum to arrivals: %+v vs %+v", tot, st)
	}
	if tot.Cancelled < 10 {
		t.Fatalf("cancelled = %d, want ≥10", tot.Cancelled)
	}
}

func TestMetricsRecorded(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1, MetricsInterval: time.Second})
	cl.RegisterModel("m", modelzoo.ResNet50())
	for i := 0; i < 10; i++ {
		submitFn(cl, "m", 100*time.Millisecond, nil)
		cl.RunFor(10 * time.Millisecond)
	}
	cl.RunFor(time.Second)
	m := cl.Metrics
	if m.LatencyAll.Count() != 10 {
		t.Fatalf("latency count = %d", m.LatencyAll.Count())
	}
	if m.Goodput.TotalCount() != 10 {
		t.Fatalf("goodput = %v", m.Goodput.TotalCount())
	}
	if m.GPUUtilFraction(0) <= 0 {
		t.Fatal("GPU utilisation not recorded")
	}
	if m.PCIUtilFraction(0) <= 0 {
		t.Fatal("PCIe utilisation not recorded")
	}
	if m.ColdModels(0) != 1 {
		t.Fatalf("cold models = %d, want 1", m.ColdModels(0))
	}
	if m.Total.Succeeded != 10 || m.Total.Failed != 0 {
		t.Fatal("success/failure counters wrong")
	}
}

func TestZeroLengthInputsMode(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1, ZeroLengthInputs: true})
	cl.RegisterModel("m", modelzoo.ResNet50())
	ok := false
	submitFn(cl, "m", 100*time.Millisecond, func(r Result) { ok = r.Success })
	cl.RunFor(100 * time.Millisecond)
	if !ok {
		t.Fatal("zero-length input request failed")
	}
}

func TestRegisterCopiesNames(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	names, _ := cl.RegisterCopies("googlenet", modelzoo.MustByName("googlenet"), 3)
	if len(names) != 3 || names[0] != "googlenet#0" || names[2] != "googlenet#2" {
		t.Fatalf("names = %v", names)
	}
	if cl.Ctl.ModelCount() != 3 {
		t.Fatal("controller registry wrong")
	}
	if cl.Workers[0].Models().Count() != 3 {
		t.Fatal("worker registry wrong")
	}
}

func TestSubmitUnknownModelTypedError(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	if err := submitFn(cl, "ghost", time.Second, nil); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("want ErrUnknownModel, got %v", err)
	}
}
