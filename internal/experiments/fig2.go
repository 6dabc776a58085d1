package experiments

import (
	"fmt"
	"strings"
	"time"

	"clockwork/internal/gpu"
	"clockwork/internal/modelzoo"
	"clockwork/internal/rng"
	"clockwork/internal/runner"
	"clockwork/internal/simclock"
	"clockwork/internal/telemetry"
)

// Fig2aConfig parameterises the isolated-inference latency experiment
// (the paper executes 11 million ResNet50 inferences; Inferences scales
// that down for quick runs).
type Fig2aConfig struct {
	Inferences int
	Seed       uint64
}

// Fig2aResult is the latency distribution of isolated serial inference.
type Fig2aResult struct {
	Inferences int
	Median     time.Duration
	P9999      time.Duration
	Max        time.Duration
	// RelSpread9999 is (p99.99 − median)/median; the paper reports
	// "within 0.03%".
	RelSpread9999 float64
	CDF           []telemetry.CDFPoint
}

// RunFig2a reproduces Fig 2a: the latency CDF of isolated, serial DNN
// inference on one GPU.
func RunFig2a(cfg Fig2aConfig) *Fig2aResult {
	if cfg.Inferences <= 0 {
		cfg.Inferences = 1_000_000
	}
	eng := simclock.NewEngine()
	dev := gpu.NewDevice(eng, rng.NewSource(cfg.Seed).Stream("fig2a"), gpu.DefaultNoise)
	base := modelzoo.ResNet50().ExecLatency(1)
	// The paper's point is sub-0.1% spread, far below the log-bucket
	// histogram resolution, so this experiment keeps exact samples and
	// computes exact order statistics.
	samples := make([]time.Duration, 0, cfg.Inferences)

	var run func()
	run = func() {
		dev.ExecRun(base, gpu.ExecFunc(func(actual time.Duration) {
			samples = append(samples, actual)
			if len(samples) < cfg.Inferences {
				run()
			}
		}))
	}
	run()
	eng.Run()

	telemetry.SortDurations(samples)
	exact := func(p float64) time.Duration {
		idx := int(p / 100 * float64(len(samples)-1))
		return samples[idx]
	}
	med := exact(50)
	p9999 := exact(99.99)
	cdf := make([]telemetry.CDFPoint, 0, 8)
	for _, p := range []float64{0, 50, 90, 99, 99.9, 99.99, 99.999, 100} {
		cdf = append(cdf, telemetry.CDFPoint{Percentile: p, Value: exact(p)})
	}
	return &Fig2aResult{
		Inferences:    cfg.Inferences,
		Median:        med,
		P9999:         p9999,
		Max:           samples[len(samples)-1],
		RelSpread9999: float64(p9999-med) / float64(med),
		CDF:           cdf,
	}
}

// String implements fmt.Stringer.
func (r *Fig2aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2a — isolated inference latency (%d inferences)\n", r.Inferences)
	fmt.Fprintf(&b, "median=%v p99.99=%v max=%v  (p99.99−median)/median=%.4f%%\n",
		r.Median, r.P9999, r.Max, 100*r.RelSpread9999)
	b.WriteString(telemetry.FormatCDF(r.CDF))
	return b.String()
}

// Fig2bConfig parameterises the concurrency experiment.
type Fig2bConfig struct {
	Concurrencies []int
	Duration      time.Duration // simulated time per concurrency level
	Seed          uint64
}

// Fig2bRow is one concurrency level's throughput and latency shape.
type Fig2bRow struct {
	Concurrency int
	Throughput  float64 // r/s
	P50         time.Duration
	P99         time.Duration
	Max         time.Duration
}

// Fig2bResult holds the sweep.
type Fig2bResult struct {
	Rows []Fig2bRow
}

// RunFig2b reproduces Fig 2b: inference throughput and latency when the
// GPU executes kernels concurrently. Throughput rises up to ~25% while
// latency becomes wildly variable.
func RunFig2b(cfg Fig2bConfig) *Fig2bResult {
	if len(cfg.Concurrencies) == 0 {
		cfg.Concurrencies = []int{1, 2, 4, 8, 16}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 30 * time.Second
	}
	base := modelzoo.ResNet50().ExecLatency(1)
	// Each concurrency level is a self-contained simulation with its own
	// engine and rng stream; run the sweep on the scenario runner.
	return &Fig2bResult{Rows: runner.Map(cfg.Concurrencies, func(conc int) Fig2bRow {
		eng := simclock.NewEngine()
		dev := gpu.NewDevice(eng, rng.NewSource(cfg.Seed).Stream(fmt.Sprintf("fig2b-%d", conc)), gpu.DefaultNoise)
		hist := telemetry.NewHistogram()
		horizon := simclock.Time(cfg.Duration)
		completed := 0
		var submit func()
		submit = func() {
			dev.Submit(base, func(actual time.Duration) {
				hist.Observe(actual)
				completed++
				if eng.Now() < horizon {
					submit()
				}
			})
		}
		for i := 0; i < conc; i++ {
			submit()
		}
		eng.RunUntil(horizon)
		return Fig2bRow{
			Concurrency: conc,
			Throughput:  float64(completed) / cfg.Duration.Seconds(),
			P50:         hist.Percentile(50),
			P99:         hist.Percentile(99),
			Max:         hist.Max(),
		}
	})}
}

// String implements fmt.Stringer.
func (r *Fig2bResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Concurrency),
			fmt.Sprintf("%.0f", row.Throughput),
			fmtMS(row.P50), fmtMS(row.P99), fmtMS(row.Max),
		})
	}
	return "Fig 2b — concurrency vs throughput/latency\n" +
		table([]string{"conc", "r/s", "p50", "p99", "max"}, rows)
}
