package clockwork

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func newSys(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIServing(t *testing.T) {
	sys := newSys(t, Config{Workers: 1, GPUsPerWorker: 1, ExactTiming: true, Seed: 1})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	var got Result
	if _, err := sys.SubmitRequest(Request{Model: "m", SLO: 100 * time.Millisecond}, func(r Result) { got = r }); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(100 * time.Millisecond)
	if !got.Success || !got.ColdStart {
		t.Fatalf("result: %+v", got)
	}
	if got.Reason != ReasonNone {
		t.Fatalf("success must carry ReasonNone, got %v", got.Reason)
	}
	if got.Model != "m" || got.RequestID == 0 {
		t.Fatalf("result lacks model/id: %+v", got)
	}
	if got.Latency <= 0 {
		t.Fatal("no latency measured")
	}
	s := sys.Summary()
	if s.Requests != 1 || s.Succeeded != 1 || s.ColdStarts != 1 {
		t.Fatalf("summary: %+v", s)
	}
	if s.GoodputMean <= 0 {
		t.Fatal("no goodput")
	}
	if sys.LatencyPercentile(50) != got.Latency {
		t.Fatal("percentile mismatch for single request")
	}
	if sys.Now() < 100*time.Millisecond {
		t.Fatal("virtual time did not advance")
	}
}

func TestPublicAPIUnknownModel(t *testing.T) {
	sys := newSys(t, Config{})
	if err := sys.RegisterModel("m", "not-a-model"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("want ErrUnknownModel, got %v", err)
	}
	if _, err := sys.RegisterCopies("m", "not-a-model", 3); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("want ErrUnknownModel, got %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	sys := newSys(t, Config{ExactTiming: true})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	// Unregistered model names are a typed error, not a silent accept.
	if _, err := sys.SubmitRequest(Request{Model: "ghost", SLO: time.Second}, nil); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("want ErrUnknownModel, got %v", err)
	}
	if _, err := sys.SubmitRequest(Request{Model: "m"}, nil); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("zero SLO: want ErrInvalidRequest, got %v", err)
	}
	if _, err := sys.SubmitRequest(Request{Model: "", SLO: time.Second}, nil); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("empty model: want ErrInvalidRequest, got %v", err)
	}
	if _, err := sys.SubmitRequest(Request{Model: "m", SLO: time.Second, MaxBatchSize: -1}, nil); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("negative cap: want ErrInvalidRequest, got %v", err)
	}
}

func TestDuplicateModelRegistration(t *testing.T) {
	sys := newSys(t, Config{})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterModel("m", "googlenet"); !errors.Is(err, ErrDuplicateModel) {
		t.Fatalf("want ErrDuplicateModel, got %v", err)
	}
}

func TestPublicAPICopies(t *testing.T) {
	sys := newSys(t, Config{ExactTiming: true})
	names, err := sys.RegisterCopies("x", "googlenet", 3)
	if err != nil || len(names) != 3 {
		t.Fatalf("copies: %v %v", names, err)
	}
	done := 0
	for _, n := range names {
		sys.SubmitRequest(Request{Model: n, SLO: 100 * time.Millisecond}, func(r Result) {
			if r.Success {
				done++
			}
		})
	}
	sys.RunFor(time.Second)
	if done != 3 {
		t.Fatalf("served %d/3", done)
	}
}

func TestPublicAPIUnknownPolicyError(t *testing.T) {
	_, err := New(Config{Policy: "magic"})
	if !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("want ErrUnknownPolicy, got %v", err)
	}
	// The error must name the alternatives.
	for _, p := range []string{"clockwork", "clipper", "infaas"} {
		if !strings.Contains(err.Error(), p) {
			t.Fatalf("error %q does not list policy %q", err, p)
		}
	}
}

func TestPublicAPIAfterHook(t *testing.T) {
	sys := newSys(t, Config{ExactTiming: true})
	fired := false
	sys.After(10*time.Millisecond, func() { fired = true })
	sys.RunFor(20 * time.Millisecond)
	if !fired {
		t.Fatal("After hook did not fire")
	}
}

func TestRunUntil(t *testing.T) {
	sys := newSys(t, Config{ExactTiming: true})
	sys.RunUntil(30 * time.Millisecond)
	if sys.Now() != 30*time.Millisecond {
		t.Fatalf("Now() = %v", sys.Now())
	}
	sys.RunUntil(10 * time.Millisecond) // past instant: no-op
	if sys.Now() != 30*time.Millisecond {
		t.Fatalf("RunUntil went backwards: %v", sys.Now())
	}
}

func TestZooAccessors(t *testing.T) {
	names := ZooModels()
	if len(names) != 64 {
		t.Fatalf("zoo size = %d", len(names))
	}
	spec, ok := ZooInfo("resnet50_v1b")
	if !ok || spec.WeightsMB != 102.1 || spec.Family != "ResNet" {
		t.Fatalf("spec: %+v", spec)
	}
	if _, ok := ZooInfo("ghost"); ok {
		t.Fatal("phantom zoo entry")
	}
	if len(ZooFamilies()) == 0 {
		t.Fatal("no families")
	}
	if got := ZooSpecs(""); len(got) != len(names) {
		t.Fatalf("ZooSpecs(all) = %d", len(got))
	}
	resnets := ZooSpecs("ResNet")
	if len(resnets) == 0 || len(resnets) >= len(names) {
		t.Fatalf("ZooSpecs(ResNet) = %d", len(resnets))
	}
	for _, s := range resnets {
		if s.Family != "ResNet" {
			t.Fatalf("family filter leaked %+v", s)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (uint64, time.Duration) {
		sys := newSys(t, Config{Seed: 99})
		if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			sys.SubmitRequest(Request{Model: "m", SLO: 100 * time.Millisecond}, nil)
			sys.RunFor(5 * time.Millisecond)
		}
		sys.RunFor(time.Second)
		s := sys.Summary()
		return s.Succeeded, s.Max
	}
	n1, m1 := run()
	n2, m2 := run()
	if n1 != n2 || m1 != m2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", n1, m1, n2, m2)
	}
}

// TestSummaryIsTheLedger: Summary counts an outcome when its response
// lands at the client, in the same instant as the model's ledger and
// the latency histogram, never a response hop earlier; and Arrived −
// Requests is the number of requests the controller holds.
// TestShardedPublicAPI checks the same ledger with placement groups and
// an unregistration.
func TestSummaryIsTheLedger(t *testing.T) {
	sys := newSys(t, Config{Workers: 1, GPUsPerWorker: 1, ExactTiming: true, Seed: 1})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatal(err)
	}
	answered := uint64(0)
	if _, err := sys.SubmitRequest(Request{Model: "m", SLO: time.Second}, func(Result) { answered++ }); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(time.Millisecond) // at the controller, far short of the cold start
	for steps := 0; answered == 0 || steps < 1000; steps++ {
		s := sys.Summary()
		bins, _ := sys.ModelStats("m")
		n, hist := s.Succeeded+s.Failed, sys.cluster.Metrics.LatencyAll.Count()
		if n != bins.Requests || n != hist {
			t.Fatalf("at %v: Summary counts %d outcomes, the model's ledger %d, latency histogram %d", sys.Now(), n, bins.Requests, hist)
		}
		if s.Requests != answered || s.Arrived-s.Requests != 1-answered {
			t.Fatalf("at %v: Arrived %d, Requests %d, with %d of 1 answered", sys.Now(), s.Arrived, s.Requests, answered)
		}
		if steps > 100_000 {
			t.Fatal("no response within 100ms")
		}
		sys.RunFor(time.Microsecond)
	}
	if s := sys.Summary(); s.Succeeded != 1 || s.Arrived != 1 {
		t.Fatalf("after the response: %+v", s)
	}
}
