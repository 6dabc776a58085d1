package clockwork_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus the DESIGN.md ablations. These run scaled-down
// variants (the full-size runs replay hours of trace; see EXPERIMENTS.md
// for the correspondence) and report the figure's headline quantity as
// a custom benchmark metric — goodput, satisfaction, tail latency —
// alongside the usual ns/op of one whole experiment run.

import (
	"fmt"
	"testing"
	"time"

	"clockwork"

	"clockwork/internal/experiments"
	"clockwork/internal/modelzoo"
	"clockwork/internal/runner"
)

// BenchmarkFig2a regenerates Fig 2a (isolated inference latency CDF).
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2a(experiments.Fig2aConfig{Inferences: 200_000, Seed: uint64(i)})
		b.ReportMetric(r.RelSpread9999*100, "p99.99-spread-%")
		b.ReportMetric(float64(r.Median)/1e6, "median-ms")
	}
}

// BenchmarkFig2b regenerates Fig 2b (concurrency throughput/latency).
func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2b(experiments.Fig2bConfig{Duration: 10 * time.Second, Seed: uint64(i)})
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.Throughput/first.Throughput, "throughput-gain-x")
		b.ReportMetric(float64(last.Max)/float64(first.P50), "tail-blowup-x")
	}
}

// BenchmarkFig5 regenerates Fig 5 (goodput vs SLO for all three
// systems) at two representative SLOs.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig5(experiments.Fig5Config{
			SLOs:     []time.Duration{25 * time.Millisecond, 500 * time.Millisecond},
			Duration: 6 * time.Second,
			Warmup:   2 * time.Second,
			Seed:     uint64(i),
		})
		for _, c := range r.Cells {
			if c.System == experiments.SystemClockwork && c.SLO == 25*time.Millisecond {
				b.ReportMetric(c.Goodput, "clockwork-25ms-goodput")
			}
			if c.System == experiments.SystemClipper && c.SLO == 25*time.Millisecond {
				b.ReportMetric(c.Goodput, "clipper-25ms-goodput")
			}
		}
	}
}

// BenchmarkFig6 regenerates Fig 6 (thousands of models on one worker).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig6(experiments.Fig6Config{
			TotalModels: 300, PreRun: time.Minute, Duration: 6 * time.Minute,
			PageCacheBytes: 100 * 7 * 16 * 1024 * 1024,
			Seed:           uint64(i),
		})
		b.ReportMetric(float64(r.MaxLatency)/1e6, "max-latency-ms")
		last := r.Minutes[len(r.Minutes)-1]
		b.ReportMetric(100*last.ColdStartFrac, "late-cold-%")
	}
}

// BenchmarkFig7 regenerates Fig 7 left (workload satisfaction sweep).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig7(experiments.Fig7Config{
			Workers: 2, Models: 4, TotalRate: 400,
			Epoch: 3 * time.Second, Seed: uint64(i),
		})
		b.ReportMetric(r.Rows[len(r.Rows)-1].Satisfaction, "satisfaction@86.5x")
		// First multiplier with ≥99% satisfaction: the paper's
		// "how low can Clockwork go" answer.
		for _, row := range r.Rows {
			if row.Satisfaction >= 0.99 {
				b.ReportMetric(row.Multiplier, "min-99%-multiplier")
				break
			}
		}
	}
}

// BenchmarkFig7Isolation regenerates Fig 7 right (LS/BC isolation).
func BenchmarkFig7Isolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig7Isolation(experiments.Fig7IsoConfig{
			Workers: 3, LSModels: 3, LSRate: 100,
			BCModels: 6, BCConc: 8,
			Epoch: 3 * time.Second, Multipliers: []float64{11.4, 25.6, 86.5},
			Seed: uint64(i),
		})
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.LSSatisfaction, "ls-satisfaction")
		b.ReportMetric(last.BCThroughput, "bc-throughput")
	}
}

// BenchmarkFig8 regenerates Fig 8 (MAF trace replay).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig8(experiments.Fig8Config{
			Workers: 1, GPUsPerWorker: 2,
			Copies: 2, Functions: 400, Minutes: 5, Seed: uint64(i),
		})
		b.ReportMetric(r.Goodput, "goodput-r/s")
		b.ReportMetric(float64(r.MaxLatency)/1e6, "max-latency-ms")
		b.ReportMetric(100*r.ColdRequests, "cold-requests-%")
	}
}

// BenchmarkFig9 regenerates Fig 9 (prediction error CDFs).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig9(experiments.Fig8Config{
			Workers: 1, GPUsPerWorker: 2,
			Copies: 2, Functions: 300, Minutes: 4, Seed: uint64(i),
		})
		b.ReportMetric(float64(r.InferUnder.Percentile(99))/1e3, "infer-under-p99-µs")
		b.ReportMetric(float64(r.LoadUnder.Percentile(99))/1e3, "load-under-p99-µs")
	}
}

// BenchmarkSLOScaleTable regenerates the §6.5 tighter-SLOs table.
func BenchmarkSLOScaleTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunSLOScale(experiments.SLOScaleConfig{
			Workers: 2, GPUsPerWorker: 2,
			Functions: 400, Minutes: 3, Copies: 2, Seed: uint64(i),
		})
		b.ReportMetric(r.Rows[0].Goodput, "goodput-100ms")
		b.ReportMetric(r.Rows[1].Goodput, "goodput-25ms")
	}
}

// BenchmarkModelZoo regenerates Table 1 lookups (catalogue access and
// batch interpolation cost).
func BenchmarkModelZoo(b *testing.B) {
	models := modelzoo.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := models[i%len(models)]
		_ = m.ExecLatency(1 + i%32)
		_ = m.Pages(16 * 1024 * 1024)
	}
}

// BenchmarkAblationSerialExec quantifies the serial-vs-concurrent EXEC
// choice (DESIGN.md ablation; Fig 2b's data in ablation form).
func BenchmarkAblationSerialExec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2b(experiments.Fig2bConfig{
			Concurrencies: []int{1, 16},
			Duration:      10 * time.Second,
			Seed:          uint64(i),
		})
		serial, conc := r.Rows[0], r.Rows[1]
		b.ReportMetric(conc.Throughput/serial.Throughput, "concurrent-throughput-x")
		b.ReportMetric(float64(conc.Max)/float64(serial.Max), "concurrent-max-latency-x")
	}
}

// BenchmarkAblationLookahead sweeps the 5ms scheduler lookahead.
func BenchmarkAblationLookahead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationLookahead(5*time.Second, uint64(i))
		for _, row := range r.Rows {
			if row.Label == "5ms" {
				b.ReportMetric(row.Goodput, "goodput-5ms-lookahead")
			}
		}
	}
}

// BenchmarkAblationPredictor sweeps the rolling-profile window size.
func BenchmarkAblationPredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationPredictor(5*time.Second, uint64(i))
		for _, row := range r.Rows {
			if row.Label == "window=10" {
				b.ReportMetric(float64(row.Rejected), "rejected-window-10")
			}
		}
	}
}

// BenchmarkAblationLoadPolicy compares Appendix B LOAD priority against
// naive oldest-first selection.
func BenchmarkAblationLoadPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationLoadPolicy(5*time.Second, uint64(i))
		b.ReportMetric(r.Rows[0].Goodput, "goodput-priority")
		b.ReportMetric(r.Rows[1].Goodput, "goodput-oldest-first")
	}
}

// BenchmarkAblationPaging compares 16MB paging against first-fit
// allocation under churn.
func BenchmarkAblationPaging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationPaging(5_000, uint64(i))
		for _, row := range r.Rows {
			switch row.Allocator {
			case "16MB paging":
				b.ReportMetric(100*row.FailureRate, "paging-failure-%")
			case "first-fit":
				b.ReportMetric(100*row.FailureRate, "firstfit-failure-%")
			}
		}
	}
}

// BenchmarkRunnerSweep measures scenario-runner throughput: a 16-cell
// sweep of small Fig 2a experiments executed serially (workers=1, the
// reference the parallel path must reproduce bit-identically) versus on
// the full worker pool. On a multi-core machine the parallel variant's
// ns/op should approach serial divided by core count; EXPERIMENTS.md
// records measured numbers.
func BenchmarkRunnerSweep(b *testing.B) {
	cells := make([]int, 16)
	for i := range cells {
		cells[i] = i
	}
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner.MapN(workers, cells, func(c int) time.Duration {
					r := experiments.RunFig2a(experiments.Fig2aConfig{
						Inferences: 20_000,
						Seed:       runner.Seed(uint64(i), fmt.Sprintf("cell-%d", c)),
					})
					return r.Median
				})
			}
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(0))
}

// BenchmarkEngineThroughput measures raw event throughput of the
// discrete-event engine — the simulator's own speed limit.
func BenchmarkEngineThroughput(b *testing.B) {
	sys, _ := clockwork.New(clockwork.Config{Workers: 1, GPUsPerWorker: 1, ExactTiming: true})
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.SubmitRequest(clockwork.Request{Model: "m", SLO: 100 * time.Millisecond}, nil)
		sys.RunFor(3 * time.Millisecond)
	}
}
