package experiments

import (
	"fmt"
	"strings"
	"time"

	"clockwork/internal/core"
	"clockwork/internal/modelzoo"
	"clockwork/internal/runner"
	"clockwork/internal/simclock"
	"clockwork/internal/telemetry"
	"clockwork/internal/workload"
	"clockwork/trace"
)

// Fig5Config parameterises the system comparison (§6.1): 15 copies of
// ResNet50 on one worker with one GPU, 16 closed-loop clients per copy,
// swept across target SLOs.
type Fig5Config struct {
	Systems    []string
	SLOs       []time.Duration
	Models     int
	ClientsPer int
	Duration   time.Duration // measured window per (system, SLO)
	Warmup     time.Duration
	Seed       uint64
	// FlightRecorder, when set, is called once per cell and the
	// returned recorder attached to that cell's cluster (cells run in
	// parallel, so they cannot share one recorder). Tracing is a pure
	// observer: results are bit-identical with or without it.
	FlightRecorder func() *trace.Recorder
}

func (c Fig5Config) withDefaults() Fig5Config {
	if len(c.Systems) == 0 {
		c.Systems = Systems
	}
	if len(c.SLOs) == 0 {
		c.SLOs = []time.Duration{
			10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
			100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		}
	}
	if c.Models <= 0 {
		c.Models = 15
	}
	if c.ClientsPer <= 0 {
		c.ClientsPer = 16
	}
	if c.Duration <= 0 {
		c.Duration = 20 * time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = 5 * time.Second
	}
	return c
}

// Fig5Cell is one (system, SLO) measurement.
type Fig5Cell struct {
	System  string
	SLO     time.Duration
	Goodput float64 // within-SLO responses per second
	// CDF is the latency distribution across ALL requests, including
	// failed/rejected ones (matching the paper's CDFs).
	CDF []telemetry.CDFPoint
	P50 time.Duration
	P99 time.Duration
	Max time.Duration
}

// Fig5Result is the full sweep.
type Fig5Result struct {
	Cells []Fig5Cell
}

// RunFig5 reproduces Fig 5: goodput and latency CDFs for Clockwork,
// Clipper-like, and INFaaS-like serving under tightening SLOs. Every
// (system, SLO) cell is an independent simulation, so the sweep fans
// out across cores; the runner returns cells in sweep order, keeping
// the output identical to a serial run.
func RunFig5(cfg Fig5Config) *Fig5Result {
	cfg = cfg.withDefaults()
	type cellKey struct {
		system string
		slo    time.Duration
	}
	keys := make([]cellKey, 0, len(cfg.Systems)*len(cfg.SLOs))
	for _, system := range cfg.Systems {
		for _, slo := range cfg.SLOs {
			keys = append(keys, cellKey{system, slo})
		}
	}
	return &Fig5Result{Cells: runner.Map(keys, func(k cellKey) Fig5Cell {
		return runFig5Cell(cfg, k.system, k.slo)
	})}
}

func runFig5Cell(cfg Fig5Config, system string, slo time.Duration) Fig5Cell {
	cl := newSystemCluster(system, core.ClusterConfig{
		Workers: 1, GPUsPerWorker: 1,
		Seed:            cfg.Seed,
		MetricsInterval: time.Second,
	})
	if cfg.FlightRecorder != nil {
		cl.SetFlightRecorder(cfg.FlightRecorder())
	}
	names, _ := cl.RegisterCopies("resnet50", modelzoo.ResNet50(), cfg.Models)

	stop := simclock.Time(cfg.Warmup + cfg.Duration)
	for _, name := range names {
		c := workload.NewClosedLoop(cl, name, slo, cfg.ClientsPer)
		c.StopAt(stop)
		c.Start()
	}
	cl.RunUntil(stop)
	// Drain in-flight work.
	cl.RunFor(2 * slo)

	// Goodput over the measured window, excluding warmup buckets.
	warmBuckets := int(cfg.Warmup / cl.Metrics.Interval())
	var good float64
	for i := warmBuckets; i < cl.Metrics.Goodput.Buckets(); i++ {
		good += cl.Metrics.Goodput.Sum(i)
	}
	hist := cl.Metrics.LatencyAll
	return Fig5Cell{
		System:  system,
		SLO:     slo,
		Goodput: good / cfg.Duration.Seconds(),
		CDF:     hist.CDF(0, 50, 90, 99, 99.9, 99.99, 100),
		P50:     hist.Percentile(50),
		P99:     hist.Percentile(99),
		Max:     hist.Max(),
	}
}

// String implements fmt.Stringer.
func (r *Fig5Result) String() string {
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.System, fmtMS(c.SLO),
			fmt.Sprintf("%.0f", c.Goodput),
			fmtMS(c.P50), fmtMS(c.P99), fmtMS(c.Max),
		})
	}
	var b strings.Builder
	b.WriteString("Fig 5 — goodput and latency vs SLO (15×ResNet50, 1 GPU, 16 closed-loop clients each)\n")
	b.WriteString(table([]string{"system", "slo", "goodput r/s", "p50", "p99", "max"}, rows))
	return b.String()
}
