package clockwork_test

// Public-API round-trip coverage: every registered policy served
// through clockwork.System only, per-request options, the runtime
// control plane, and a determinism test for mid-run reconfiguration.
// Deliberately imports nothing from clockwork/internal.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"clockwork"
)

func mustSys(t *testing.T, cfg clockwork.Config) *clockwork.System {
	t.Helper()
	sys, err := clockwork.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestEveryRegisteredPolicyServes round-trips one request through every
// policy in the registry — the paper's scheduler, its ablation variant,
// both baselines, and anything registered by other tests.
func TestEveryRegisteredPolicyServes(t *testing.T) {
	policies := clockwork.Policies()
	if len(policies) < 4 {
		t.Fatalf("registry too small: %v", policies)
	}
	for _, p := range policies {
		p := p
		t.Run(string(p), func(t *testing.T) {
			sys := mustSys(t, clockwork.Config{Policy: p, ExactTiming: true, Seed: 1})
			if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
				t.Fatal(err)
			}
			var got clockwork.Result
			if _, err := sys.SubmitRequest(clockwork.Request{
				Model: "m", SLO: 500 * time.Millisecond, Tenant: "t0",
			}, func(r clockwork.Result) { got = r }); err != nil {
				t.Fatal(err)
			}
			sys.RunFor(time.Second)
			if !got.Success {
				t.Fatalf("policy %s failed to serve: %+v", p, got)
			}
			if got.Tenant != "t0" || got.Model != "m" {
				t.Fatalf("result lost request labels: %+v", got)
			}
			if _, ok := clockwork.PolicyDescription(p); !ok {
				t.Fatalf("policy %s has no registry entry", p)
			}
		})
	}
}

// fifoScheduler is a deliberately naive external policy: one
// outstanding batch-1 INFER at a time on GPU 0, loading on demand. It
// exists to prove third-party schedulers can be written and registered
// against the public surface alone.
type fifoScheduler struct {
	c      *clockwork.Controller
	models []*clockwork.ModelInfo // every model a request arrived for
}

func (s *fifoScheduler) Attach(c *clockwork.Controller)      { s.c = c }
func (s *fifoScheduler) OnResult(res clockwork.ActionResult) { s.pump() }

func (s *fifoScheduler) OnRequest(r *clockwork.ControllerRequest) {
	if mi := r.ModelInfo(); !slices.Contains(s.models, mi) {
		s.models = append(s.models, mi)
	}
	s.pump()
}

func (s *fifoScheduler) pump() {
	g := s.c.GPUs()[0]
	for _, mi := range s.models {
		if mi.QueuedCount() == 0 {
			continue
		}
		readyAt, resident := g.Resident(mi)
		if !resident {
			s.c.SendLoad(g, mi, s.c.Now(), clockwork.MaxVirtualTime)
			continue
		}
		if g.InFlight(mi) > 0 {
			continue
		}
		earliest := s.c.Now()
		if readyAt > earliest {
			earliest = readyAt
		}
		reqs := mi.PopBatch(1)
		s.c.SendInfer(g, mi, 1, reqs, earliest, clockwork.MaxVirtualTime)
	}
}

// externalPolicyRuns names each run's policy apart: the registry is
// process-wide, so a second run (-count) must not re-register a name.
var externalPolicyRuns int

func TestRegisterExternalPolicy(t *testing.T) {
	externalPolicyRuns++
	name := clockwork.Policy(fmt.Sprintf("test-fifo-%d", externalPolicyRuns))
	err := clockwork.RegisterPolicy(name, clockwork.PolicySpec{
		New:                     func() clockwork.Scheduler { return &fifoScheduler{} },
		DisableAdmissionControl: true,
		Description:             "test-only naive FIFO scheduler",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := clockwork.RegisterPolicy(name, clockwork.PolicySpec{
		New: func() clockwork.Scheduler { return &fifoScheduler{} },
	}); !errors.Is(err, clockwork.ErrDuplicatePolicy) {
		t.Fatalf("want ErrDuplicatePolicy, got %v", err)
	}

	sys := mustSys(t, clockwork.Config{Policy: name, ExactTiming: true})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	served := 0
	for i := 0; i < 5; i++ {
		if _, err := sys.SubmitRequest(clockwork.Request{Model: "m", SLO: time.Second}, func(r clockwork.Result) {
			if r.Success {
				served++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.RunFor(2 * time.Second)
	if served != 5 {
		t.Fatalf("external policy served %d/5", served)
	}
}

// workListScheduler dispatches only when none of its actions is
// outstanding, and then sends one batch-1 INFER per model on GPU 0's work
// list from inside the range over it. Each INFER empties its model's
// queue and so takes the model off the live list mid-range.
type workListScheduler struct {
	c       *clockwork.Controller
	models  []*clockwork.ModelInfo
	work    []*clockwork.ModelInfo
	pending int // actions sent whose results have not come back
	maxSent int // most INFERs sent in one range over the work list
}

func (s *workListScheduler) Attach(c *clockwork.Controller)  { s.c = c }
func (s *workListScheduler) OnResult(clockwork.ActionResult) { s.pending--; s.pump() }

func (s *workListScheduler) OnRequest(r *clockwork.ControllerRequest) {
	if mi := r.ModelInfo(); !slices.Contains(s.models, mi) {
		s.models = append(s.models, mi)
	}
	s.pump()
}

func (s *workListScheduler) pump() {
	if s.pending > 0 {
		return
	}
	g := s.c.GPUs()[0]
	for _, mi := range s.models {
		if _, resident := g.Resident(mi); !resident && mi.QueuedCount() > 0 {
			s.c.SendLoad(g, mi, s.c.Now(), clockwork.MaxVirtualTime)
			s.pending++
		}
	}
	if s.pending > 0 {
		return
	}
	sent := 0
	s.work = g.ModelsWithWork(s.work)
	for _, mi := range s.work {
		s.c.SendInfer(g, mi, 1, mi.PopBatch(1), s.c.Now(), clockwork.MaxVirtualTime)
		s.pending++
		sent++
	}
	s.maxSent = max(s.maxSent, sent)
}

// lastWorkList is the workListScheduler the "test-worklist" policy made
// last.
var lastWorkList *workListScheduler

// TestModelsWithWorkSafeToSendWhileRanging serves same-instant bursts
// through workListScheduler: the INFERs it sends while ranging over
// ModelsWithWork must not make it skip a model or meet an emptied slot.
func TestModelsWithWorkSafeToSendWhileRanging(t *testing.T) {
	// Registered once per process (-count > 1 reruns find it there).
	err := clockwork.RegisterPolicy("test-worklist", clockwork.PolicySpec{
		New: func() clockwork.Scheduler {
			lastWorkList = &workListScheduler{}
			return lastWorkList
		},
		DisableAdmissionControl: true,
		Description:             "test-only scheduler sending while ranging over a GPU's work list",
	})
	if err != nil && !errors.Is(err, clockwork.ErrDuplicatePolicy) {
		t.Fatal(err)
	}
	sys := mustSys(t, clockwork.Config{Policy: "test-worklist", ExactTiming: true})
	s := lastWorkList
	models := []string{"a", "b", "c", "d"}
	for _, m := range models {
		if err := sys.RegisterModel(m, "resnet50_v1b"); err != nil {
			t.Fatal(err)
		}
	}
	submitted, served := 0, 0
	burst := func() {
		for _, m := range models {
			submitted++
			if _, err := sys.SubmitRequest(clockwork.Request{Model: m, SLO: time.Second}, func(r clockwork.Result) {
				if r.Success {
					served++
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		sys.RunFor(500 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		burst()
	}
	if served != submitted {
		t.Fatalf("served %d of %d", served, submitted)
	}
	if s.maxSent < 3 {
		t.Fatalf("at most %d INFERs sent in one range; the test needs several models leaving the list mid-range", s.maxSent)
	}
}

func TestMaxBatchSizeCapsBatches(t *testing.T) {
	sys := mustSys(t, clockwork.Config{ExactTiming: true, Seed: 2})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	// Warm the model so the burst has latitude to batch.
	sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 100 * time.Millisecond}, nil)
	sys.RunFor(100 * time.Millisecond)

	batches := map[int]int{}
	for i := 0; i < 8; i++ {
		if _, err := sys.SubmitRequest(clockwork.Request{
			Model: "m", SLO: 100 * time.Millisecond, MaxBatchSize: 1,
		}, func(r clockwork.Result) {
			if r.Success {
				batches[r.Batch]++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.RunFor(300 * time.Millisecond)
	if batches[1] != 8 || len(batches) != 1 {
		t.Fatalf("MaxBatchSize=1 violated: batches=%v", batches)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	sys := mustSys(t, clockwork.Config{ExactTiming: true, Seed: 3})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 100 * time.Millisecond}, nil) // warm
	sys.RunFor(100 * time.Millisecond)

	var order []string
	submit := func(tag string, prio int) {
		if _, err := sys.SubmitRequest(clockwork.Request{
			Model: "m", SLO: 200 * time.Millisecond, Priority: prio,
		}, func(r clockwork.Result) {
			if r.Success {
				order = append(order, tag)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A filler to occupy the GPU, then low-priority before high-priority
	// in submission order; the high-priority requests must jump the
	// queue ahead of still-queued low-priority ones.
	submit("filler", 0)
	for i := 0; i < 4; i++ {
		submit(fmt.Sprintf("low%d", i), 0)
	}
	for i := 0; i < 4; i++ {
		submit(fmt.Sprintf("high%d", i), 5)
	}
	sys.RunFor(time.Second)
	if len(order) != 9 {
		t.Fatalf("served %d/9: %v", len(order), order)
	}
	lastHigh := 0
	lowAfter := 0
	for i, tag := range order {
		if strings.HasPrefix(tag, "high") {
			lastHigh = i
		}
	}
	for _, tag := range order[lastHigh+1:] {
		if strings.HasPrefix(tag, "low") {
			lowAfter++
		}
	}
	// At least two of the four low-priority requests must have been
	// overtaken by every high-priority request (the first low ones may
	// have been dispatched before the high ones arrived).
	if lowAfter < 2 {
		t.Fatalf("priority had no effect: completion order %v", order)
	}
}

func TestHandleCancelAndOutcome(t *testing.T) {
	sys := mustSys(t, clockwork.Config{ExactTiming: true, Seed: 4})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	var got clockwork.Result
	h, err := sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 100 * time.Millisecond},
		func(r clockwork.Result) { got = r })
	if err != nil {
		t.Fatal(err)
	}
	if h.Done() {
		t.Fatal("handle done before the clock moved")
	}
	if !h.Cancel() {
		t.Fatal("in-transit cancel should be accepted")
	}
	sys.RunFor(200 * time.Millisecond)
	if got.Success || got.Reason != clockwork.ReasonCancelled {
		t.Fatalf("want cancelled, got %+v", got)
	}
	res, ok := h.Outcome()
	if !ok || res.Reason != clockwork.ReasonCancelled {
		t.Fatalf("handle outcome: %+v ok=%v", res, ok)
	}
	if h.Cancel() {
		t.Fatal("cancelling a finished request should report false")
	}

	// A completed request's handle reports its outcome.
	h2, err := sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 100 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunFor(200 * time.Millisecond)
	res2, ok := h2.Outcome()
	if !ok || !res2.Success || res2.Latency <= 0 || h2.ID() == 0 {
		t.Fatalf("handle outcome: %+v ok=%v id=%d", res2, ok, h2.ID())
	}
}

func TestControlPlaneWorkerLifecycle(t *testing.T) {
	sys := mustSys(t, clockwork.Config{Workers: 1, GPUsPerWorker: 1, ExactTiming: true, Seed: 5})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	// Serve once on worker 0.
	ok := false
	sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 100 * time.Millisecond}, func(r clockwork.Result) { ok = r.Success })
	sys.RunFor(100 * time.Millisecond)
	if !ok {
		t.Fatal("baseline serve failed")
	}

	// Scale out, then drain worker 0: traffic must continue on the new
	// worker, which received every registered model at AddWorker time.
	id := sys.AddWorker()
	if id != 1 || sys.Workers() != 2 {
		t.Fatalf("AddWorker id=%d workers=%d", id, sys.Workers())
	}
	if err := sys.DrainWorker(0); err != nil {
		t.Fatal(err)
	}
	if st, _ := sys.WorkerStateOf(0); st != clockwork.WorkerDraining {
		t.Fatalf("worker 0 state = %v", st)
	}
	if err := sys.DrainWorker(0); !errors.Is(err, clockwork.ErrWorkerDown) {
		t.Fatalf("double drain: want ErrWorkerDown, got %v", err)
	}
	served := 0
	for i := 0; i < 10; i++ {
		sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 100 * time.Millisecond}, func(r clockwork.Result) {
			if r.Success {
				served++
			}
		})
		sys.RunFor(20 * time.Millisecond)
	}
	if served != 10 {
		t.Fatalf("served %d/10 after drain+scale-out", served)
	}

	// Error paths.
	if err := sys.DrainWorker(99); !errors.Is(err, clockwork.ErrNoSuchWorker) {
		t.Fatalf("want ErrNoSuchWorker, got %v", err)
	}
	if err := sys.InjectDisturbance(0, 7, time.Millisecond); !errors.Is(err, clockwork.ErrNoSuchWorker) {
		t.Fatalf("want ErrNoSuchWorker for bad GPU, got %v", err)
	}
	if err := sys.InjectDisturbance(1, 0, time.Millisecond); err != nil {
		t.Fatalf("valid disturbance injection failed: %v", err)
	}
}

func TestFailWorkerFailsInFlight(t *testing.T) {
	sys := mustSys(t, clockwork.Config{Workers: 1, GPUsPerWorker: 1, ExactTiming: true, Seed: 6})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 100 * time.Millisecond}, nil) // warm
	sys.RunFor(100 * time.Millisecond)

	outcomes := map[clockwork.Reason]int{}
	for i := 0; i < 6; i++ {
		sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 50 * time.Millisecond}, func(r clockwork.Result) {
			outcomes[r.Reason]++
		})
	}
	// Let the first action(s) reach the worker, then kill it.
	sys.RunFor(time.Millisecond)
	if err := sys.FailWorker(0); err != nil {
		t.Fatal(err)
	}
	if st, _ := sys.WorkerStateOf(0); st != clockwork.WorkerFailed {
		t.Fatalf("worker state = %v", st)
	}
	sys.RunFor(time.Second)

	if outcomes[clockwork.ReasonNone] != 0 {
		t.Fatalf("requests succeeded on a failed worker: %v", outcomes)
	}
	if outcomes[clockwork.ReasonWorkerFailed] == 0 {
		t.Fatalf("no in-flight work was lost to the failure: %v", outcomes)
	}
	total := 0
	for _, n := range outcomes {
		total += n
	}
	if total != 6 {
		t.Fatalf("only %d/6 requests reached an outcome: %v", total, outcomes)
	}
}

func TestUnregisterModel(t *testing.T) {
	sys := mustSys(t, clockwork.Config{Workers: 1, GPUsPerWorker: 1, ExactTiming: true, Seed: 7})
	if err := sys.RegisterModel("keep", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterModel("drop", "googlenet"); err != nil {
		t.Fatal(err)
	}
	// Serve both, then retire "drop" at quiescence.
	for _, m := range []string{"keep", "drop"} {
		sys.SubmitRequest(clockwork.Request{Model: m, SLO: 100 * time.Millisecond}, nil)
	}
	sys.RunFor(200 * time.Millisecond)

	if err := sys.UnregisterModel("ghost"); !errors.Is(err, clockwork.ErrUnknownModel) {
		t.Fatalf("want ErrUnknownModel, got %v", err)
	}
	if err := sys.UnregisterModel("drop"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SubmitRequest(clockwork.Request{Model: "drop", SLO: time.Second}, nil); !errors.Is(err, clockwork.ErrUnknownModel) {
		t.Fatalf("submitting to an unregistered model: want ErrUnknownModel, got %v", err)
	}
	// "keep" is unaffected.
	ok := false
	sys.SubmitRequest(clockwork.Request{Model: "keep", SLO: 100 * time.Millisecond}, func(r clockwork.Result) { ok = r.Success })
	sys.RunFor(100 * time.Millisecond)
	if !ok {
		t.Fatal("surviving model stopped serving")
	}
	// The name can be reused.
	if err := sys.RegisterModel("drop", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	ok = false
	sys.SubmitRequest(clockwork.Request{Model: "drop", SLO: 100 * time.Millisecond}, func(r clockwork.Result) { ok = r.Success })
	sys.RunFor(100 * time.Millisecond)
	if !ok {
		t.Fatal("re-registered model failed to serve")
	}
}

func TestUnregisterFailsQueuedRequests(t *testing.T) {
	sys := mustSys(t, clockwork.Config{Workers: 1, GPUsPerWorker: 1, ExactTiming: true, Seed: 8})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	// With the only worker drained, requests queue with nowhere to go.
	if err := sys.DrainWorker(0); err != nil {
		t.Fatal(err)
	}
	var got clockwork.Result
	sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 10 * time.Second}, func(r clockwork.Result) { got = r })
	sys.RunFor(10 * time.Millisecond) // request reaches the controller queue
	if err := sys.UnregisterModel("m"); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(100 * time.Millisecond)
	if got.Success || got.Reason != clockwork.ReasonUnregistered {
		t.Fatalf("queued request: want ReasonUnregistered, got %+v", got)
	}
}

// TestUnregisterBusyOnDrainedWorker: drain promises that in-flight
// results are honoured, so a model with work in flight on a drained
// worker must refuse to unregister until that work drains.
func TestUnregisterBusyOnDrainedWorker(t *testing.T) {
	sys := mustSys(t, clockwork.Config{Workers: 1, GPUsPerWorker: 1, ExactTiming: true, Seed: 11})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 100 * time.Millisecond}, nil) // warm
	sys.RunFor(100 * time.Millisecond)

	var got clockwork.Result
	sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 100 * time.Millisecond}, func(r clockwork.Result) { got = r })
	sys.RunFor(time.Millisecond) // INFER now in flight
	if err := sys.DrainWorker(0); err != nil {
		t.Fatal(err)
	}
	if err := sys.UnregisterModel("m"); !errors.Is(err, clockwork.ErrModelBusy) {
		t.Fatalf("unregister with in-flight work on a drained worker: want ErrModelBusy, got %v", err)
	}
	sys.RunFor(200 * time.Millisecond)
	if !got.Success {
		t.Fatalf("drained worker's in-flight result was not honoured: %+v", got)
	}
	if err := sys.UnregisterModel("m"); err != nil {
		t.Fatalf("unregister after drain quiesced: %v", err)
	}
}

// TestCancelInTransitBeatsDispatch: a cancel issued while the request
// is on the wire must win even when a warm model and a free GPU would
// let the scheduler dispatch the request the instant it arrives.
func TestCancelInTransitBeatsDispatch(t *testing.T) {
	sys := mustSys(t, clockwork.Config{ExactTiming: true, Seed: 12})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 100 * time.Millisecond}, nil) // warm; GPU idle afterwards
	sys.RunFor(100 * time.Millisecond)

	var got clockwork.Result
	h, err := sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 100 * time.Millisecond},
		func(r clockwork.Result) { got = r })
	if err != nil {
		t.Fatal(err)
	}
	if !h.Cancel() {
		t.Fatal("in-transit cancel should be accepted")
	}
	sys.RunFor(200 * time.Millisecond)
	if got.Success || got.Reason != clockwork.ReasonCancelled {
		t.Fatalf("in-transit cancel lost to dispatch: %+v", got)
	}
}

func TestModelAndTenantStats(t *testing.T) {
	sys := mustSys(t, clockwork.Config{ExactTiming: true, Seed: 9})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sys.SubmitRequest(clockwork.Request{
			Model: "m", SLO: 100 * time.Millisecond, Tenant: "acme",
		}, nil)
		sys.RunFor(50 * time.Millisecond)
	}
	// One provably unmeetable request for the failure taxonomy.
	sys.SubmitRequest(clockwork.Request{Model: "m", SLO: time.Millisecond, Tenant: "acme"}, nil)
	sys.RunFor(100 * time.Millisecond)

	ms, ok := sys.ModelStats("m")
	if !ok {
		t.Fatal("no model stats")
	}
	if ms.Requests != 5 || ms.Succeeded != 4 || ms.Cancelled != 1 || ms.ColdStarts != 1 {
		t.Fatalf("model stats: %+v", ms)
	}
	if ms.P50 <= 0 || ms.Max < ms.P50 || ms.GoodputMean <= 0 {
		t.Fatalf("model latency stats: %+v", ms)
	}
	ts, ok := sys.TenantStats("acme")
	if !ok || ts.Requests != 5 || ts.Succeeded != 4 {
		t.Fatalf("tenant stats: %+v ok=%v", ts, ok)
	}
	if _, ok := sys.ModelStats("ghost"); ok {
		t.Fatal("stats for unknown model")
	}
	if _, ok := sys.TenantStats("ghost"); ok {
		t.Fatal("stats for unknown tenant")
	}
}

// TestControlPlaneDeterminism replays a scenario with mid-run AddWorker
// and DrainWorker twice and requires bit-identical per-request outcomes
// — the clock-determinism promise must survive live reconfiguration.
func TestControlPlaneDeterminism(t *testing.T) {
	run := func() string {
		sys := mustSys(t, clockwork.Config{Workers: 1, GPUsPerWorker: 1, Seed: 1234})
		if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
			t.Fatal(err)
		}
		var sig strings.Builder
		var loop func(i int)
		loop = func(i int) {
			if i >= 300 {
				return
			}
			sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 25 * time.Millisecond},
				func(r clockwork.Result) {
					fmt.Fprintf(&sig, "%d:%v:%v:%d;", r.RequestID, r.Success, r.Latency, r.Batch)
				})
			sys.After(2*time.Millisecond, func() { loop(i + 1) })
		}
		loop(0)
		sys.After(100*time.Millisecond, func() { sys.AddWorker() })
		sys.After(300*time.Millisecond, func() {
			if err := sys.DrainWorker(0); err != nil {
				t.Error(err)
			}
		})
		sys.RunFor(2 * time.Second)
		s := sys.Summary()
		fmt.Fprintf(&sig, "|ok=%d fail=%d max=%v", s.Succeeded, s.Failed, s.Max)
		if s.Succeeded < 200 {
			t.Fatalf("reconfiguration broke serving: %+v", s)
		}
		return sig.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("mid-run AddWorker/DrainWorker is nondeterministic:\n%.200s\nvs\n%.200s", a, b)
	}
}

// modelTotal adds up the named models' outcome ledgers field by field.
func modelTotal(sys *clockwork.System, names []string) clockwork.TenantStats {
	var sum clockwork.TenantStats
	sv := reflect.ValueOf(&sum).Elem()
	for _, n := range names {
		st, _ := sys.ModelStats(n)
		for f, bv := 0, reflect.ValueOf(st.Outcomes); f < sv.NumField(); f++ {
			sv.Field(f).SetUint(sv.Field(f).Uint() + bv.Field(f).Uint())
		}
	}
	return sum
}

// TestShardedPublicAPI round-trips placement groups through the public
// surface alone: construction with Shards, the per-group demand
// snapshot, per-model stats that sum to the Summary, an unregistration
// with requests in flight, and the geometry validation error.
func TestShardedPublicAPI(t *testing.T) {
	sys := mustSys(t, clockwork.Config{Workers: 4, GPUsPerWorker: 1, Shards: 2, Seed: 1})
	if n := len(sys.DemandSnapshot()); n != 2 {
		t.Fatalf("DemandSnapshot has %d groups, want 2", n)
	}
	names, err := sys.RegisterCopies("resnet", "resnet50_v1b", 8)
	if err != nil {
		t.Fatal(err)
	}
	succeeded := 0
	for round := 0; round < 5; round++ {
		for _, n := range names {
			if _, err := sys.SubmitRequest(clockwork.Request{Model: n, SLO: 250 * time.Millisecond}, func(r clockwork.Result) {
				if r.Success {
					succeeded++
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		sys.RunFor(100 * time.Millisecond)
	}
	sys.RunFor(time.Second)
	if succeeded == 0 {
		t.Fatal("no request succeeded on the sharded system")
	}
	// Every arrival is answered once, in Summary as in the model ledgers.
	sum := sys.Summary()
	if models := modelTotal(sys, names); models != sum.Outcomes || sum.Requests != sum.Arrived {
		t.Fatalf("model ledgers %+v, Summary %+v, Arrived = %d", models, sum.Outcomes, sum.Arrived)
	}

	// Unregistering a model cancels its queued requests and the one on
	// the wire, in Summary as in the model ledgers. With every worker
	// drained, new requests queue at the controller.
	before := sys.Summary()
	for id := 0; id < 4; id++ {
		if err := sys.DrainWorker(id); err != nil {
			t.Fatal(err)
		}
	}
	victim := names[1]
	for i := 0; i < 3; i++ {
		sys.SubmitRequest(clockwork.Request{Model: victim, SLO: 10 * time.Second}, nil)
	}
	sys.RunFor(10 * time.Millisecond)
	if s := sys.Summary(); s.Arrived-s.Requests != 3 {
		t.Fatalf("3 requests queued, Arrived − Requests = %d", s.Arrived-s.Requests)
	}
	sys.SubmitRequest(clockwork.Request{Model: victim, SLO: 10 * time.Second}, nil) // on the wire
	if err := sys.UnregisterModel(victim); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(time.Second)
	sum = sys.Summary()
	if models := modelTotal(sys, names); models != sum.Outcomes || sum.Requests != sum.Arrived {
		t.Fatalf("after unregister: model ledgers %+v, Summary %+v, Arrived = %d", models, sum.Outcomes, sum.Arrived)
	}
	if sum.Cancelled-before.Cancelled != 4 || sum.Requests-before.Requests != 4 {
		t.Fatalf("want 4 more cancelled of 4 more answered: before %+v, after %+v", before.Outcomes, sum.Outcomes)
	}

	// Geometry validation: more groups than workers is a construction
	// error, not a panic.
	if _, err := clockwork.New(clockwork.Config{Workers: 1, Shards: 4}); err == nil {
		t.Fatal("want error for Shards > Workers")
	}
}

// TestSubmitShardIgnoredOnOneEngine: the shard SubmitRequestSink takes
// is ignored — there is one controller — so a request entered with any
// shard, in range of the placement groups or not, is accounted exactly
// like one from SubmitRequest. A model unregistered while its request is
// on the wire is the sharpest probe: the controller answers it, minting
// the ID.
func TestSubmitShardIgnoredOnOneEngine(t *testing.T) {
	type outcome struct {
		id       uint64
		reason   clockwork.Reason
		answered uint64
	}
	run := func(submit func(sys *clockwork.System, req clockwork.Request, done func(clockwork.Result)) error) outcome {
		sys := mustSys(t, clockwork.Config{Workers: 2, GPUsPerWorker: 1, Shards: 2, Seed: 1})
		names, err := sys.RegisterCopies("m", "resnet50_v1b", 4)
		if err != nil {
			t.Fatal(err)
		}
		// Traffic first, so the controller has minted IDs.
		for _, n := range names {
			sys.SubmitRequest(clockwork.Request{Model: n, SLO: time.Second}, nil)
		}
		sys.RunFor(time.Second)
		victim := names[0]
		var got outcome
		if err := submit(sys, clockwork.Request{Model: victim, SLO: time.Second}, func(r clockwork.Result) {
			got.id, got.reason = r.RequestID, r.Reason
		}); err != nil {
			t.Fatal(err)
		}
		if err := sys.UnregisterModel(victim); err != nil {
			t.Fatal(err)
		}
		sys.RunFor(time.Second)
		got.answered = sys.Summary().Requests
		return got
	}
	want := run(func(sys *clockwork.System, req clockwork.Request, done func(clockwork.Result)) error {
		_, err := sys.SubmitRequest(req, done)
		return err
	})
	if want.id == 0 || want.reason != clockwork.ReasonUnregistered {
		t.Fatalf("SubmitRequest: %+v, want an unregistered outcome", want)
	}
	for _, shard := range []int{0, 1, 7} {
		got := run(func(sys *clockwork.System, req clockwork.Request, done func(clockwork.Result)) error {
			return sys.SubmitRequestSink(shard, req, sinkFunc(done))
		})
		if got != want {
			t.Fatalf("SubmitRequestSink on shard %d: %+v, SubmitRequest: %+v", shard, got, want)
		}
	}
}

// TestShardedSummaryMatchesUnshardedWorkload: the same deterministic
// workload must complete fully with 1 and 2 placement groups; outcome
// totals may differ (different LOAD placement) but both must account
// for every request exactly once.
func TestShardedSummaryMatchesUnshardedWorkload(t *testing.T) {
	run := func(shards int) clockwork.Summary {
		sys := mustSys(t, clockwork.Config{Workers: 2, GPUsPerWorker: 1, Shards: shards, Seed: 9})
		names, err := sys.RegisterCopies("m", "resnet50_v1b", 6)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 10; round++ {
			for _, n := range names {
				sys.SubmitRequest(clockwork.Request{Model: n, SLO: 200 * time.Millisecond}, nil)
			}
			sys.RunFor(50 * time.Millisecond)
		}
		sys.RunFor(time.Second)
		return sys.Summary()
	}
	for _, shards := range []int{1, 2} {
		s := run(shards)
		if s.Arrived != 60 || s.Requests != 60 {
			t.Fatalf("shards=%d: %d of 60 requests arrived, %d answered", shards, s.Arrived, s.Requests)
		}
		if s.Succeeded+s.Failed != 60 {
			t.Fatalf("shards=%d: outcomes %d+%d don't cover 60", shards, s.Succeeded, s.Failed)
		}
	}
}
