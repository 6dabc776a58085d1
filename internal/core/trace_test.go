package core

import (
	"testing"
	"time"

	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
	"clockwork/trace"
)

// newTracedCluster builds a 1-worker cluster with a rate-1.0 flight
// recorder attached.
func newTracedCluster(t *testing.T) (*Cluster, *trace.Recorder) {
	t.Helper()
	cl := NewCluster(ClusterConfig{Workers: 1, GPUsPerWorker: 1, NoNoise: true})
	rec := trace.New(trace.Options{SampleRate: 1, Enabled: true})
	cl.SetFlightRecorder(rec)
	return cl, rec
}

func TestClusterFlightRecorderCapture(t *testing.T) {
	cl, rec := newTracedCluster(t)
	cl.RegisterModel("m", modelzoo.ResNet50())
	submitFn(cl, "m", 100*time.Millisecond, nil)
	cl.RunFor(100 * time.Millisecond)

	snap := rec.Snapshot()
	if len(snap.Requests) != 1 {
		t.Fatalf("want 1 retained trace, got %d", len(snap.Requests))
	}
	tr := snap.Requests[0]
	if !tr.Success || tr.ID != 1 || tr.Model != "m" {
		t.Fatalf("trace: %+v", tr)
	}
	// A cold start issues LOAD + INFER; both span rings must have them.
	if len(snap.Execs) != 1 || len(snap.Loads) != 1 {
		t.Fatalf("spans: %d execs, %d loads", len(snap.Execs), len(snap.Loads))
	}
	if !tr.ColdStart {
		t.Fatalf("first request must be a cold start: %+v", tr)
	}

	// The decomposition must reconstruct the cold-start shape: queueing
	// (≈ the 8.3ms LOAD) dominating, then a 2.77ms exec.
	exec, ok := (&tr).StageDur(trace.StageExec)
	if !ok || exec != modelzoo.ResNet50().ExecLatency(1) {
		t.Fatalf("exec span = %v (ok=%v)", exec, ok)
	}
	queue, ok := (&tr).StageDur(trace.StageQueue)
	if !ok || queue < 8*time.Millisecond {
		t.Fatalf("cold-start queue %v should include the weight transfer", queue)
	}
	load, ok := (&tr).StageDur(trace.StageLoad)
	if !ok || load < 8*time.Millisecond || load > queue {
		t.Fatalf("load span %v should sit inside the %v queue wait", load, queue)
	}
	if tr.Latency < queue+exec {
		t.Fatal("decomposition exceeds total latency")
	}
	if tr.PredExec <= 0 || tr.Batch != 1 || tr.Worker != 0 {
		t.Fatalf("scheduler decision not captured: %+v", tr)
	}
	if tr.Violation {
		t.Fatalf("in-SLO request flagged as violation: %+v", tr)
	}
	if snap.Stats.Building != 0 {
		t.Fatalf("building traces leaked: %+v", snap.Stats)
	}
}

func TestClusterFlightRecorderFailureCapture(t *testing.T) {
	cl, rec := newTracedCluster(t)
	cl.RegisterModel("m", modelzoo.ResNet50())
	submitFn(cl, "m", time.Millisecond, nil) // unmeetable
	cl.RunFor(100 * time.Millisecond)

	snap := rec.Snapshot()
	if len(snap.Requests) != 1 {
		t.Fatalf("want 1 retained trace, got %d", len(snap.Requests))
	}
	tr := snap.Requests[0]
	if tr.Success || tr.ReasonStr != "cancelled" || !tr.Violation {
		t.Fatalf("trace: %+v", tr)
	}
	// Cold model + unmeetable SLO: provenance blames the cold start.
	if tr.Cause != trace.CauseColdStart {
		t.Fatalf("cause = %v", tr.Cause)
	}
	found := false
	for _, p := range snap.Provenance {
		if p.Cause == trace.CauseColdStart.String() && p.Model == "m" && p.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("provenance table missing the cold-start cancel: %+v", snap.Provenance)
	}
}

// TestFlightRecorderPureObserver locks the determinism contract:
// attaching a recorder (at any rate) must not move a single event —
// the controller's arrival and action counters, the outcome ledger and
// the engine step count match a recorder-free run exactly.
func TestFlightRecorderPureObserver(t *testing.T) {
	run := func(rec *trace.Recorder) (Stats, Outcomes, uint64) {
		cl := NewCluster(ClusterConfig{Workers: 2, GPUsPerWorker: 2, Seed: 7})
		if rec != nil {
			cl.SetFlightRecorder(rec)
		}
		cl.RegisterModel("m", modelzoo.ResNet50())
		for i := 0; i < 50; i++ {
			cl.Eng.ScheduleRun(cl.Eng.Now().Add(time.Duration(i)*2*time.Millisecond), simclock.Func(func() {
				submitFn(cl, "m", 50*time.Millisecond, nil)
			}))
		}
		cl.RunFor(500 * time.Millisecond)
		return cl.Stats(), cl.Metrics.Total, cl.Eng.Steps()
	}
	base, baseTot, baseSteps := run(nil)
	for _, rate := range []float64{0, 0.5, 1} {
		got, tot, steps := run(trace.New(trace.Options{SampleRate: rate, Enabled: true}))
		if got != base || tot != baseTot || steps != baseSteps {
			t.Fatalf("rate %v perturbed the run: stats %+v vs %+v, outcomes %+v vs %+v, steps %d vs %d",
				rate, got, base, tot, baseTot, steps, baseSteps)
		}
	}
}
