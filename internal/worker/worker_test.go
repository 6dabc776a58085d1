package worker

import (
	"testing"
	"time"

	"clockwork/internal/action"
	"clockwork/internal/gpu"
	"clockwork/internal/modelzoo"
	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

// The instance the tests serve, by ID; ghost is never registered.
const (
	testModel action.ModelID = 1
	ghost     action.ModelID = 42
)

func newTestWorker(t *testing.T) (*simclock.Engine, *Worker, *[]action.Result) {
	t.Helper()
	eng := simclock.NewEngine()
	w := New(eng, rng.NewSource(1), Config{ID: 0, GPUs: 1, Noise: gpu.NoNoise}, new(Models))
	w.Models().Register(testModel, modelzoo.ResNet50())
	var results []action.Result
	w.OnResult = func(r action.Result) { results = append(results, r) }
	return eng, w, &results
}

func loadAction(id uint64) *action.Action {
	return &action.Action{
		ID: id, Type: action.Load, ModelID: testModel,
		Earliest: 0, Latest: simclock.MaxTime,
	}
}

func inferAction(id uint64, earliest, latest simclock.Time) *action.Action {
	m := modelzoo.ResNet50()
	return &action.Action{
		ID: id, Type: action.Infer, ModelID: testModel, Batch: 1,
		RequestIDs: []uint64{id},
		Earliest:   earliest, Latest: latest,
		InputBytes: m.InputBytes(), OutputBytes: m.OutputBytes(),
	}
}

func TestLoadThenInfer(t *testing.T) {
	eng, w, results := newTestWorker(t)
	w.Submit(loadAction(1))
	// The controller schedules the INFER's window to open at the LOAD's
	// predicted completion (8.33ms transfer); mimic that here.
	w.Submit(inferAction(2, simclock.Time(9*time.Millisecond), simclock.MaxTime))
	eng.Run()

	if len(*results) != 2 {
		t.Fatalf("got %d results", len(*results))
	}
	load, infer := (*results)[0], (*results)[1]
	if load.Type != action.Load || !load.Status.IsSuccess() {
		t.Fatalf("load result: %v", &load)
	}
	// LOAD duration is the profiled transfer time (8.33ms, no noise).
	if load.Duration != modelzoo.ResNet50().Transfer() {
		t.Fatalf("load duration = %v", load.Duration)
	}
	if infer.Type != action.Infer || !infer.Status.IsSuccess() {
		t.Fatalf("infer result: %v", &infer)
	}
	if infer.Duration != modelzoo.ResNet50().ExecLatency(1) {
		t.Fatalf("exec duration = %v", infer.Duration)
	}
	// EXEC begins only after the LOAD's transfer completes (weights not
	// ready before), so exec start ≥ load end.
	if infer.Start < load.End {
		t.Fatalf("exec started at %v before load finished at %v", infer.Start, load.End)
	}
}

func TestInferWithoutLoadRejected(t *testing.T) {
	eng, w, results := newTestWorker(t)
	w.Submit(inferAction(1, 0, simclock.MaxTime))
	eng.Run()
	if len(*results) != 1 || (*results)[0].Status != action.RejectedNotLoaded {
		t.Fatalf("results: %v", *results)
	}
	// IO must have been released.
	if w.GPU(0).IO.Used() != 0 {
		t.Fatalf("leaked IO: %d bytes", w.GPU(0).IO.Used())
	}
}

func TestInferLateWindowRejected(t *testing.T) {
	eng, w, results := newTestWorker(t)
	w.Submit(loadAction(1))
	eng.Run() // model is loaded, clock has advanced past transfer (8.33ms)

	late := inferAction(2, 0, simclock.Time(time.Millisecond)) // latest long past
	w.Submit(late)
	eng.Run()
	last := (*results)[len(*results)-1]
	if last.Status != action.RejectedLate {
		t.Fatalf("status = %v", last.Status)
	}
	if w.GPU(0).IO.Used() != 0 {
		t.Fatal("IO leak after late rejection")
	}
}

func TestInferWaitsForEarliest(t *testing.T) {
	eng, w, results := newTestWorker(t)
	w.Submit(loadAction(1))
	eng.Run()

	start := eng.Now().Add(10 * time.Millisecond)
	w.Submit(inferAction(2, start, simclock.MaxTime))
	eng.Run()
	infer := (*results)[1]
	if infer.Start != start {
		t.Fatalf("exec started at %v, want exactly %v", infer.Start, start)
	}
}

func TestExecOneAtATime(t *testing.T) {
	eng, w, results := newTestWorker(t)
	w.Submit(loadAction(1))
	eng.Run()

	w.Submit(inferAction(2, 0, simclock.MaxTime))
	w.Submit(inferAction(3, 0, simclock.MaxTime))
	eng.Run()

	a, b := (*results)[1], (*results)[2]
	if !a.Status.IsSuccess() || !b.Status.IsSuccess() {
		t.Fatalf("statuses: %v %v", a.Status, b.Status)
	}
	// Executions must not overlap.
	if b.Start < a.End && a.Start < b.End {
		if !(b.Start >= a.End || a.Start >= b.End) {
			t.Fatalf("EXECs overlap: [%v,%v] and [%v,%v]", a.Start, a.End, b.Start, b.End)
		}
	}
}

func TestLoadNoPagesRejected(t *testing.T) {
	eng := simclock.NewEngine()
	// Page cache fits exactly one ResNet50 (7 pages).
	w := New(eng, rng.NewSource(1), Config{
		ID: 0, GPUs: 1, Noise: gpu.NoNoise,
		PageCacheBytes: 7 * 16 * 1024 * 1024,
	}, new(Models))
	w.Models().Register(1, modelzoo.ResNet50())
	w.Models().Register(2, modelzoo.ResNet50())
	var results []action.Result
	w.OnResult = func(r action.Result) { results = append(results, r) }

	w.Submit(&action.Action{ID: 1, Type: action.Load, ModelID: 1, Latest: simclock.MaxTime})
	w.Submit(&action.Action{ID: 2, Type: action.Load, ModelID: 2, Latest: simclock.MaxTime})
	eng.Run()
	if results[0].Status != action.Success {
		t.Fatalf("first load: %v", results[0].Status)
	}
	if results[1].Status != action.RejectedNoPages {
		t.Fatalf("second load: %v", results[1].Status)
	}
}

func TestLoadAlreadyLoadedRejected(t *testing.T) {
	eng, w, results := newTestWorker(t)
	w.Submit(loadAction(1))
	eng.Run()
	w.Submit(loadAction(2))
	eng.Run()
	if (*results)[1].Status != action.RejectedAlreadyLoaded {
		t.Fatalf("status = %v", (*results)[1].Status)
	}
}

func TestLoadUnknownModelRejected(t *testing.T) {
	eng, w, results := newTestWorker(t)
	w.Submit(&action.Action{ID: 1, Type: action.Load, ModelID: ghost, Latest: simclock.MaxTime})
	eng.Run()
	if (*results)[0].Status != action.RejectedNotLoaded {
		t.Fatalf("status = %v", (*results)[0].Status)
	}
}

func TestUnloadSemantics(t *testing.T) {
	eng, w, results := newTestWorker(t)
	// Unload of non-resident model fails.
	w.Submit(&action.Action{ID: 1, Type: action.Unload, ModelID: testModel})
	eng.Run()
	if (*results)[0].Status != action.RejectedNotResident {
		t.Fatalf("status = %v", (*results)[0].Status)
	}
	// Load, then unload succeeds immediately.
	w.Submit(loadAction(2))
	eng.Run()
	w.Submit(&action.Action{ID: 3, Type: action.Unload, ModelID: testModel})
	eng.Run()
	last := (*results)[len(*results)-1]
	if !last.Status.IsSuccess() {
		t.Fatalf("unload: %v", last.Status)
	}
	if w.GPU(0).Pages.Has(testModel) {
		t.Fatal("pages not freed")
	}
	// A subsequent INFER must now be rejected.
	w.Submit(inferAction(4, eng.Now(), simclock.MaxTime))
	eng.Run()
	if got := (*results)[len(*results)-1].Status; got != action.RejectedNotLoaded {
		t.Fatalf("infer after unload: %v", got)
	}
}

func TestUnloadWhileExecutingRejected(t *testing.T) {
	eng, w, results := newTestWorker(t)
	w.Submit(loadAction(1))
	eng.Run()
	w.Submit(inferAction(2, 0, simclock.MaxTime))
	// Step until the EXEC has begun (device busy), then try to unload.
	for !w.GPU(0).Dev.Busy() && eng.Step() {
	}
	if !w.GPU(0).Dev.Busy() {
		t.Fatal("never started executing")
	}
	w.Submit(&action.Action{ID: 3, Type: action.Unload, ModelID: testModel})
	eng.Run()
	var infer, unload *action.Result
	for i := range *results {
		switch (*results)[i].ActionID {
		case 2:
			infer = &(*results)[i]
		case 3:
			unload = &(*results)[i]
		}
	}
	if unload == nil || unload.Status != action.RejectedBusy {
		t.Fatalf("unload result: %v", unload)
	}
	// The infer still completes.
	if infer == nil || !infer.Status.IsSuccess() {
		t.Fatalf("infer did not complete: %v", infer)
	}
}

func TestBatchedInferDuration(t *testing.T) {
	eng, w, results := newTestWorker(t)
	w.Submit(loadAction(1))
	eng.Run()
	a := inferAction(2, 0, simclock.MaxTime)
	a.Batch = 16
	a.RequestIDs = []uint64{10, 11, 12}
	w.Submit(a)
	eng.Run()
	infer := (*results)[1]
	if infer.Duration != modelzoo.ResNet50().ExecLatency(16) {
		t.Fatalf("batch-16 duration = %v", infer.Duration)
	}
	if len(infer.RequestIDs) != 3 {
		t.Fatal("request IDs not propagated")
	}
}

func TestSubmitBadGPUPanics(t *testing.T) {
	_, w, _ := newTestWorker(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Submit(&action.Action{ID: 1, Type: action.Load, ModelID: testModel, GPU: 5})
}

func TestRegisterNilModelPanics(t *testing.T) {
	_, w, _ := newTestWorker(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Models().Register(7, nil)
}

func TestWorkerAccessors(t *testing.T) {
	_, w, _ := newTestWorker(t)
	if w.ID() != 0 || w.NumGPUs() != 1 {
		t.Fatal("accessors wrong")
	}
	ms := w.Models()
	if ms.Get(testModel) == nil || ms.Get(ghost) != nil || ms.Get(-1) != nil {
		t.Fatal("Models.Get wrong")
	}
	if ms.Count() != 1 {
		t.Fatal("Models.Count wrong")
	}
	ms.Unregister(ghost)
	ms.Unregister(testModel)
	if ms.Count() != 0 || ms.Get(testModel) != nil {
		t.Fatal("Models.Unregister wrong")
	}
	if w.PageCapacity(0) <= 0 {
		t.Fatal("PageCapacity wrong")
	}
}

func TestDefaultConfigCapacity(t *testing.T) {
	eng := simclock.NewEngine()
	w := New(eng, rng.NewSource(1), Config{ID: 3}, new(Models))
	if w.NumGPUs() != DefaultGPUs {
		t.Fatalf("gpus = %d", w.NumGPUs())
	}
	// 32GB − 512MB − 512MB = 31GB → 1984 pages of 16MB.
	if got := w.PageCapacity(0); got != 1984 {
		t.Fatalf("page capacity = %d, want 1984", got)
	}
}

func TestOutputOverlapsNextExec(t *testing.T) {
	// §4.4: the previous request's output copy may coincide with the
	// next request's execution — GPU must go idle at exec end, not at
	// result delivery.
	eng, w, results := newTestWorker(t)
	w.Submit(loadAction(1))
	eng.Run()
	w.Submit(inferAction(2, 0, simclock.MaxTime))
	w.Submit(inferAction(3, 0, simclock.MaxTime))
	eng.Run()
	a, b := (*results)[1], (*results)[2]
	// Second exec starts exactly when the first ends (no output gap).
	if b.Start != a.End {
		t.Fatalf("second exec at %v, first ended %v — output stalled the GPU", b.Start, a.End)
	}
}
