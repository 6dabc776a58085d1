package workload

import (
	"math"
	"testing"
	"time"

	"clockwork/internal/core"
	"clockwork/internal/modelzoo"
	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

func newCluster() *core.Cluster {
	return core.NewCluster(core.ClusterConfig{Workers: 1, GPUsPerWorker: 1, NoNoise: true})
}

func TestClosedLoopMaintainsConcurrency(t *testing.T) {
	cl := newCluster()
	cl.RegisterModel("m", modelzoo.ResNet50())
	c := NewClosedLoop(cl, "m", 100*time.Millisecond, 4)
	c.StopAt(simclock.Time(2 * time.Second))
	c.Start()
	cl.RunFor(3 * time.Second)

	if c.Sent() < 100 {
		t.Fatalf("sent only %d requests in 2s", c.Sent())
	}
	if c.Succeeded() == 0 {
		t.Fatal("nothing succeeded")
	}
	// Warm ResNet50 at batch ≤4: exec ≤5.88ms → roughly
	// 4/0.006 ≈ 600+ r/s; closed loop with 4 outstanding should get
	// at least a few hundred per second.
	if rate := float64(c.Sent()) / 2; rate < 300 {
		t.Fatalf("closed-loop rate %.0f r/s too low", rate)
	}
}

func TestClosedLoopPanicsOnBadConcurrency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClosedLoop(newCluster(), "m", time.Second, 0)
}

func TestOpenLoopRate(t *testing.T) {
	cl := newCluster()
	cl.RegisterModel("m", modelzoo.ResNet50())
	const slo = 100 * time.Millisecond
	var sent, succeeded int
	OpenLoop(cl.Eng, rng.NewStream(1), 200, simclock.Time(10*time.Second), func() {
		sent++
		cl.Submit(core.SubmitSpec{Model: "m", SLO: slo}, core.ResultFunc(func(r core.Result) {
			if r.Success && r.Latency <= slo {
				succeeded++
			}
		}))
	})
	cl.RunFor(11 * time.Second)

	rate := float64(sent) / 10
	if math.Abs(rate-200) > 20 {
		t.Fatalf("open-loop rate = %.0f r/s, want ≈200", rate)
	}
	if succeeded < sent*95/100 {
		t.Fatalf("only %d/%d within SLO", succeeded, sent)
	}
}

func TestOpenLoopPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OpenLoop(newCluster().Eng, rng.NewStream(1), 0, simclock.MaxTime, func() {})
}

func TestMAFTraceShape(t *testing.T) {
	s := rng.NewSource(7).Stream("maf")
	tr := SynthesizeMAF(s, MAFConfig{Functions: 2000, Minutes: 120})
	if len(tr.Functions) != 2000 || tr.Minutes != 120 {
		t.Fatal("dimensions wrong")
	}
	counts := tr.KindCounts()
	if counts[KindHeavy] == 0 || counts[KindCold] == 0 || counts[KindBursty] == 0 || counts[KindPeriodic] == 0 {
		t.Fatalf("missing function classes: %v", counts)
	}
	// Cold functions dominate by count.
	if counts[KindCold] < 1000 {
		t.Fatalf("cold functions = %d, want majority", counts[KindCold])
	}
	// Heavy functions dominate by volume despite being ~1% by count.
	var heavyVol, totalVol float64
	for i := range tr.Functions {
		v := tr.Functions[i].Total()
		totalVol += v
		if tr.Functions[i].Kind == KindHeavy {
			heavyVol += v
		}
	}
	if heavyVol/totalVol < 0.3 {
		t.Fatalf("heavy functions carry %.0f%% of volume, want ≥30%%", 100*heavyVol/totalVol)
	}
	if tr.TotalRate() <= 0 {
		t.Fatal("zero total rate")
	}
}

func TestMAFTraceIsDeterministic(t *testing.T) {
	a := SynthesizeMAF(rng.NewSource(7).Stream("maf"), MAFConfig{Functions: 100, Minutes: 30})
	b := SynthesizeMAF(rng.NewSource(7).Stream("maf"), MAFConfig{Functions: 100, Minutes: 30})
	for i := range a.Functions {
		for m := range a.Functions[i].MinuteRates {
			if a.Functions[i].MinuteRates[m] != b.Functions[i].MinuteRates[m] {
				t.Fatalf("traces diverge at function %d minute %d", i, m)
			}
		}
	}
}

func TestMAFPeriodicSpikes(t *testing.T) {
	s := rng.NewSource(7).Stream("maf")
	tr := SynthesizeMAF(s, MAFConfig{Functions: 3000, Minutes: 180})
	// Aggregate rate at minutes ≡ 0..2 (mod 60) should exceed mid-hour
	// minutes because periodic functions align near the hour top.
	var spikeSum, baseSum float64
	spikeN, baseN := 0, 0
	for m := 0; m < tr.Minutes; m++ {
		if m%60 <= 2 {
			spikeSum += tr.RateAtMinute(m)
			spikeN++
		} else if m%15 > 3 { // avoid 15-minute spikes in the base
			baseSum += tr.RateAtMinute(m)
			baseN++
		}
	}
	if spikeSum/float64(spikeN) <= baseSum/float64(baseN) {
		t.Fatal("no hourly spike structure in the aggregate trace")
	}
}

func TestMAFRateScale(t *testing.T) {
	a := SynthesizeMAF(rng.NewSource(7).Stream("maf"), MAFConfig{Functions: 200, Minutes: 30})
	b := SynthesizeMAF(rng.NewSource(7).Stream("maf"), MAFConfig{Functions: 200, Minutes: 30, RateScale: 1.5})
	ra, rb := a.TotalRate(), b.TotalRate()
	if math.Abs(rb/ra-1.5) > 1e-9 {
		t.Fatalf("rate scale: %v vs %v (ratio %v)", ra, rb, rb/ra)
	}
}

func TestFunctionKindStrings(t *testing.T) {
	for _, k := range []FunctionKind{KindHeavy, KindCold, KindBursty, KindPeriodic} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	if FunctionKind(42).String() != "FunctionKind(42)" {
		t.Fatal("unknown kind string")
	}
}

func TestReplayerDrivesCluster(t *testing.T) {
	cl := newCluster()
	names, _ := cl.RegisterCopies("resnet18_v2", modelzoo.MustByName("resnet18_v2"), 4)
	s := rng.NewSource(7)
	tr := SynthesizeMAF(s.Stream("trace"), MAFConfig{Functions: 20, Minutes: 3})
	rp := NewReplayer(cl, s.Stream("replay"), tr, names, 100*time.Millisecond)
	rp.Start()
	cl.RunFor(4 * time.Minute)

	if rp.Sent() == 0 {
		t.Fatal("replayer sent nothing")
	}
	st := cl.Ctl.Stats()
	if st.Requests != rp.Sent() {
		t.Fatalf("controller saw %d, replayer sent %d", st.Requests, rp.Sent())
	}
	if cl.Metrics.Total.Succeeded == 0 {
		t.Fatal("nothing succeeded")
	}
}

func TestReplayerPanicsWithoutModels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReplayer(newCluster(), rng.NewStream(1), &Trace{}, nil, time.Second)
}
