package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestFig2aPredictability(t *testing.T) {
	t.Parallel()
	r := RunFig2a(Fig2aConfig{Inferences: 50_000, Seed: 1})
	if r.Median < 2700*time.Microsecond || r.Median > 2900*time.Microsecond {
		t.Fatalf("median = %v, want ≈2.77ms", r.Median)
	}
	// Paper: p99.99 within 0.03% of the median.
	if r.RelSpread9999 > 0.0006 {
		t.Fatalf("p99.99 spread %.4f%% too wide", 100*r.RelSpread9999)
	}
	if !strings.Contains(r.String(), "Fig 2a") {
		t.Fatal("missing header")
	}
}

func TestFig2bShape(t *testing.T) {
	t.Parallel()
	r := RunFig2b(Fig2bConfig{Duration: 10 * time.Second, Seed: 1})
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	gain := last.Throughput/first.Throughput - 1
	if gain < 0.08 || gain > 0.40 {
		t.Fatalf("throughput gain at conc 16 = %.0f%%, want ≈25%%", gain*100)
	}
	if last.Max < 20*first.P50 {
		t.Fatalf("conc-16 max latency %v should dwarf serial median %v", last.Max, first.P50)
	}
	if r.String() == "" {
		t.Fatal("empty render")
	}
}

func TestFig5ClockworkBeatsBaselinesAtTightSLO(t *testing.T) {
	t.Parallel()
	r := RunFig5(Fig5Config{
		SLOs:     []time.Duration{25 * time.Millisecond, 500 * time.Millisecond},
		Duration: 6 * time.Second,
		Warmup:   2 * time.Second,
		Seed:     1,
	})
	good := map[string]map[time.Duration]float64{}
	for _, c := range r.Cells {
		if good[c.System] == nil {
			good[c.System] = map[time.Duration]float64{}
		}
		good[c.System][c.SLO] = c.Goodput
	}
	tight := 25 * time.Millisecond
	loose := 500 * time.Millisecond
	// At a tight SLO, Clockwork must dominate both baselines (Fig 5:
	// baseline goodput collapses below 100ms).
	if good[SystemClockwork][tight] < 2*good[SystemClipper][tight] {
		t.Fatalf("clockwork %.0f vs clipper %.0f at 25ms — no collapse",
			good[SystemClockwork][tight], good[SystemClipper][tight])
	}
	if good[SystemClockwork][tight] < 1.5*good[SystemINFaaS][tight] {
		t.Fatalf("clockwork %.0f vs infaas %.0f at 25ms", good[SystemClockwork][tight], good[SystemINFaaS][tight])
	}
	// At 500ms, INFaaS-like serving is competitive (within 2×).
	if good[SystemINFaaS][loose] < good[SystemClockwork][loose]/2 {
		t.Fatalf("infaas %.0f should be competitive with clockwork %.0f at 500ms",
			good[SystemINFaaS][loose], good[SystemClockwork][loose])
	}
	if !strings.Contains(r.String(), "Fig 5") {
		t.Fatal("missing header")
	}
}

func TestFig6ShiftingBottleneck(t *testing.T) {
	t.Parallel()
	r := RunFig6(Fig6Config{
		TotalModels:      400,
		ActivationPeriod: time.Second,
		MajorRate:        1000,
		MinorRate:        200,
		PreRun:           time.Minute,
		Duration:         8 * time.Minute,
		Seed:             1,
		// Capacity ≈100 ResNet50s so the swap regime starts early.
		PageCacheBytes: 100 * 7 * 16 * 1024 * 1024,
	})
	// The SLO must never be violated (Fig 6b: max latency ≤ 100ms).
	if r.MaxLatency > 100*time.Millisecond {
		t.Fatalf("max latency %v exceeded the SLO", r.MaxLatency)
	}
	// Cold starts must dominate late in the run (Fig 6c).
	last := r.Minutes[len(r.Minutes)-1]
	if last.ColdStartFrac < 0.5 {
		t.Fatalf("late cold-start fraction = %.2f, want most requests cold", last.ColdStartFrac)
	}
	// PCIe becomes the bottleneck: utilisation near the end should be
	// high (Fig 6d).
	if last.PCIUtil < 0.5 {
		t.Fatalf("late PCIe utilisation = %.2f, want high", last.PCIUtil)
	}
	// Minor workload keeps serving throughout (Fig 6a).
	if last.MinorGoodput < 100 {
		t.Fatalf("minor goodput fell to %.0f r/s", last.MinorGoodput)
	}
	if !strings.Contains(r.String(), "Fig 6") {
		t.Fatal("missing header")
	}
	checkGolden(t, "fig6", goldenFig6, r.String())
}

func TestFig7SatisfactionRises(t *testing.T) {
	t.Parallel()
	r := RunFig7(Fig7Config{
		Workers: 2, Models: 4, TotalRate: 400,
		Epoch: 4 * time.Second, Seed: 1,
	})
	if len(r.Rows) != len(SLOMultipliers) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Satisfaction at multiplier 1.0 is near zero (impossible), and at
	// large multipliers near one.
	if r.Rows[0].Satisfaction > 0.2 {
		t.Fatalf("satisfaction at 1.0× = %.2f, want ≈0", r.Rows[0].Satisfaction)
	}
	lastRow := r.Rows[len(r.Rows)-1]
	if lastRow.Satisfaction < 0.95 {
		t.Fatalf("satisfaction at 86.5× = %.2f, want ≈1", lastRow.Satisfaction)
	}
	// Monotone-ish rise: the max over the second half beats the first
	// half's max.
	firstMax, secondMax := 0.0, 0.0
	for i, row := range r.Rows {
		if i < len(r.Rows)/2 {
			if row.Satisfaction > firstMax {
				firstMax = row.Satisfaction
			}
		} else if row.Satisfaction > secondMax {
			secondMax = row.Satisfaction
		}
	}
	if secondMax < firstMax {
		t.Fatal("satisfaction did not improve with looser SLOs")
	}
	if !strings.Contains(r.String(), "Fig 7") {
		t.Fatal("missing header")
	}
	checkGolden(t, "fig7", goldenFig7, r.String())
}

func TestFig7IsolationLSUnaffectedByBC(t *testing.T) {
	t.Parallel()
	mult := []float64{11.4, 25.6, 86.5}
	base := RunFig7Isolation(Fig7IsoConfig{
		Workers: 3, LSModels: 3, LSRate: 100,
		BCModels: 0, Epoch: 4 * time.Second, Multipliers: mult, Seed: 1,
	})
	shared := RunFig7Isolation(Fig7IsoConfig{
		Workers: 3, LSModels: 3, LSRate: 100,
		BCModels: 6, BCConc: 8, Epoch: 4 * time.Second, Multipliers: mult, Seed: 1,
	})
	for i := range mult {
		if shared.Rows[i].LSSatisfaction < base.Rows[i].LSSatisfaction-0.10 {
			t.Fatalf("mult %.1f: LS satisfaction dropped from %.2f to %.2f with BC load",
				mult[i], base.Rows[i].LSSatisfaction, shared.Rows[i].LSSatisfaction)
		}
	}
	// BC clients make progress when there is idle capacity.
	var bcTotal float64
	for _, row := range shared.Rows {
		bcTotal += row.BCThroughput
	}
	if bcTotal == 0 {
		t.Fatal("BC clients starved entirely")
	}
	if !strings.Contains(shared.String(), "Fig 7") {
		t.Fatal("missing header")
	}
	checkGolden(t, "fig7iso base", goldenFig7IsoBase, base.String())
	checkGolden(t, "fig7iso shared", goldenFig7IsoShared, shared.String())
}

func TestFig8TraceReplay(t *testing.T) {
	t.Parallel()
	r := RunFig8(Fig8Config{
		Workers: 1, GPUsPerWorker: 2,
		Copies: 2, Functions: 400, Minutes: 6, Seed: 1,
	})
	if r.Requests == 0 {
		t.Fatal("no requests replayed")
	}
	// Goodput ≈ throughput (Fig 8a: 4,860.5 of 4,860.6 r/s).
	if r.Goodput < 0.98*r.Throughput {
		t.Fatalf("goodput %.1f ≪ throughput %.1f", r.Goodput, r.Throughput)
	}
	// No response may exceed the SLO by more than the return-path
	// margin (paper: "No request exceeded 100ms").
	if r.MaxLatency > r.Config.SLO {
		t.Fatalf("max latency %v exceeded SLO %v", r.MaxLatency, r.Config.SLO)
	}
	if len(r.Minutes) != 6 {
		t.Fatalf("minutes = %d", len(r.Minutes))
	}
	if !strings.Contains(r.String(), "Fig 8") {
		t.Fatal("missing header")
	}
}

func TestFig9PredictionErrorsSmall(t *testing.T) {
	t.Parallel()
	r := RunFig9(Fig8Config{
		Workers: 1, GPUsPerWorker: 2,
		Copies: 2, Functions: 300, Minutes: 5, Seed: 1,
	})
	if r.InferPredictions == 0 || r.LoadPredicted == 0 {
		t.Fatal("no predictions tracked")
	}
	// Fig 9: INFER duration error p99 ≈ 250µs — ours should be of that
	// order (well under 1ms) since noise is ~0.01%.
	if p := r.InferUnder.Percentile(99); p > time.Millisecond {
		t.Fatalf("INFER underprediction p99 = %v", p)
	}
	if p := r.InferOver.Percentile(99); p > time.Millisecond {
		t.Fatalf("INFER overprediction p99 = %v", p)
	}
	if !strings.Contains(r.String(), "Fig 9") {
		t.Fatal("missing header")
	}
	checkGolden(t, "fig9", goldenFig9, r.String())
}

func TestSLOScaleTable(t *testing.T) {
	t.Parallel()
	r := RunSLOScale(SLOScaleConfig{
		Workers: 2, GPUsPerWorker: 2,
		Functions: 400, Minutes: 4, Copies: 2, Seed: 1,
	})
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	hundred, twentyFive := r.Rows[0], r.Rows[1]
	// Both SLOs sustain nearly the same goodput (§6.5: 6,174 vs 6,060).
	if twentyFive.Goodput < 0.9*hundred.Goodput {
		t.Fatalf("25ms goodput %.0f collapsed vs 100ms %.0f", twentyFive.Goodput, hundred.Goodput)
	}
	// The tighter SLO rejects more requests in advance.
	if twentyFive.TimedOut < hundred.TimedOut {
		t.Fatalf("expected more timeouts at 25ms (%d) than 100ms (%d)", twentyFive.TimedOut, hundred.TimedOut)
	}
	if !strings.Contains(r.String(), "6.5") {
		t.Fatal("missing header")
	}
	checkGolden(t, "sloscale", goldenSLOScale, r.String())
}
