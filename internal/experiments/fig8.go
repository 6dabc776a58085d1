package experiments

import (
	"fmt"
	"strings"
	"time"

	"clockwork/internal/core"
	"clockwork/internal/modelzoo"
	"clockwork/internal/rng"
	"clockwork/internal/runner"
	"clockwork/internal/simclock"
	"clockwork/internal/telemetry"
	"clockwork/internal/workload"
	"clockwork/trace"
)

// Fig8Config parameterises the MAF trace replay (§6.5). The paper's
// full-size run is 17,000 functions over 4,026 model instances (61 zoo
// varieties × 66 copies) on 6 workers × 2 GPUs for 8 hours at
// ≈4,860 r/s; the defaults here are a proportionally scaled-down slice
// that preserves the workload mixture (see EXPERIMENTS.md).
type Fig8Config struct {
	Workers       int
	GPUsPerWorker int
	Copies        int // instances per zoo variety (paper: 66)
	Functions     int
	Minutes       int
	RateScale     float64
	SLO           time.Duration
	Seed          uint64
	// ZeroLengthInputs and the remaining knobs support the §6.5 scale
	// table variant.
	ZeroLengthInputs bool
	// FlightRecorder, when set, is called once per run and the result
	// attached to the cluster; a pure observer (see Fig5Config).
	FlightRecorder func() *trace.Recorder
}

func (c Fig8Config) withDefaults() Fig8Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.GPUsPerWorker <= 0 {
		c.GPUsPerWorker = 2
	}
	if c.Copies <= 0 {
		c.Copies = 6
	}
	if c.Functions <= 0 {
		c.Functions = 1800
	}
	if c.Minutes <= 0 {
		c.Minutes = 16
	}
	if c.RateScale <= 0 {
		c.RateScale = 1
	}
	if c.SLO <= 0 {
		c.SLO = 100 * time.Millisecond
	}
	return c
}

// Fig8Minute is one minute of the Fig 8 panels.
type Fig8Minute struct {
	Minute        int
	Throughput    float64
	Goodput       float64
	P50           time.Duration
	P99           time.Duration
	Max           time.Duration
	MeanBatch     float64
	ColdModels    int
	ColdStartRate float64
}

// Fig8Result summarises the replay.
type Fig8Result struct {
	Config Fig8Config

	Requests     uint64
	Throughput   float64 // mean r/s over the run
	Goodput      float64
	Failed       uint64 // rejected / cancelled / timed out
	SLOExceeded  uint64 // successful responses over the SLO
	MaxLatency   time.Duration
	MeanBatch    float64
	ColdRequests float64 // fraction of requests that were cold starts
	Minutes      []Fig8Minute

	// Cluster is kept for follow-on analyses (Fig 9 reads the
	// controller's prediction-error trackers).
	Cluster *core.Cluster
}

// RunFig8 reproduces Fig 8: replaying a Microsoft-Azure-Functions-like
// trace over Clockwork.
func RunFig8(cfg Fig8Config) *Fig8Result {
	cfg = cfg.withDefaults()
	cl := newSystemCluster(SystemClockwork, core.ClusterConfig{
		Workers:          cfg.Workers,
		GPUsPerWorker:    cfg.GPUsPerWorker,
		Seed:             cfg.Seed,
		MetricsInterval:  time.Minute,
		ZeroLengthInputs: cfg.ZeroLengthInputs,
	})
	if cfg.FlightRecorder != nil {
		cl.SetFlightRecorder(cfg.FlightRecorder())
	}
	// 61+ zoo varieties × Copies instances (§6.5 / Appendix A).
	var names []string
	for _, m := range modelzoo.All() {
		for c := 0; c < cfg.Copies; c++ {
			name := fmt.Sprintf("%s#%d", m.Name, c)
			cl.RegisterModel(name, m)
			names = append(names, name)
		}
	}

	src := rng.NewSource(cfg.Seed)
	trace := workload.SynthesizeMAF(src.Stream("fig8.trace"), workload.MAFConfig{
		Functions: cfg.Functions,
		Minutes:   cfg.Minutes,
		RateScale: cfg.RateScale,
	})
	rp := workload.NewReplayer(cl, src.Stream("fig8.replay"), trace, names, cfg.SLO)
	rp.Start()

	end := simclock.Time(time.Duration(cfg.Minutes) * time.Minute)
	cl.RunUntil(end.Add(2 * cfg.SLO))

	m := cl.Metrics
	res := &Fig8Result{
		Config:      cfg,
		Requests:    m.Total.Requests,
		Throughput:  float64(m.Throughput.TotalCount()) / (float64(cfg.Minutes) * 60),
		Goodput:     float64(m.Goodput.TotalCount()) / (float64(cfg.Minutes) * 60),
		Failed:      m.Total.Failed,
		SLOExceeded: m.Total.SLOMisses,
		MaxLatency:  m.LatencyAll.Max(),
		Cluster:     cl,
	}
	if n := m.Batch.TotalCount(); n > 0 {
		res.MeanBatch = m.Batch.TotalSum() / float64(n)
	}
	if res.Requests > 0 {
		res.ColdRequests = float64(m.Total.ColdStarts) / float64(res.Requests)
	}
	for i := 0; i < cfg.Minutes; i++ {
		row := Fig8Minute{
			Minute:        i,
			Throughput:    m.Throughput.Rate(i),
			Goodput:       m.Goodput.Rate(i),
			MeanBatch:     m.Batch.Mean(i),
			ColdModels:    m.ColdModels(i),
			ColdStartRate: m.ColdStartThroughput.Rate(i),
		}
		if i < len(m.LatencySeries) && m.LatencySeries[i].Count() > 0 {
			h := m.LatencySeries[i]
			row.P50 = h.Percentile(50)
			row.P99 = h.Percentile(99)
			row.Max = h.Max()
		}
		res.Minutes = append(res.Minutes, row)
	}
	return res
}

// String implements fmt.Stringer.
func (r *Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8 — MAF-like trace over Clockwork (%d functions, %d instances, %d min, %d GPUs)\n",
		r.Config.Functions, r.Config.Copies*modelzoo.Count(), r.Config.Minutes,
		r.Config.Workers*r.Config.GPUsPerWorker)
	fmt.Fprintf(&b, "requests=%d throughput=%.1f r/s goodput=%.1f r/s failed=%d overSLO=%d max=%v\n",
		r.Requests, r.Throughput, r.Goodput, r.Failed, r.SLOExceeded, r.MaxLatency)
	fmt.Fprintf(&b, "mean batch=%.2f cold-start requests=%.2f%%\n", r.MeanBatch, 100*r.ColdRequests)
	rows := make([][]string, 0, len(r.Minutes))
	for _, m := range r.Minutes {
		rows = append(rows, []string{
			fmt.Sprintf("%d", m.Minute),
			fmt.Sprintf("%.0f", m.Throughput),
			fmt.Sprintf("%.0f", m.Goodput),
			fmtMS(m.P50), fmtMS(m.P99), fmtMS(m.Max),
			fmt.Sprintf("%.2f", m.MeanBatch),
			fmt.Sprintf("%d", m.ColdModels),
			fmt.Sprintf("%.1f", m.ColdStartRate),
		})
	}
	b.WriteString(table([]string{"min", "t'put", "goodput", "p50", "p99", "max", "batch", "cold models", "cold r/s"}, rows))
	return b.String()
}

// Fig9Result presents the prediction-error telemetry of a trace replay
// (Fig 9): action-duration and completion-time errors, split into over-
// and underpredictions.
type Fig9Result struct {
	InferOver, InferUnder           *telemetry.Histogram
	LoadOver, LoadUnder             *telemetry.Histogram
	InferCompOver, InferCompUnder   *telemetry.Histogram
	LoadCompOver, LoadCompUnder     *telemetry.Histogram
	InferPredictions, LoadPredicted uint64
}

// RunFig9 runs the Fig 8 workload and extracts Fig 9's prediction-error
// distributions from the controller.
func RunFig9(cfg Fig8Config) *Fig9Result {
	f8 := RunFig8(cfg)
	ctl := f8.Cluster.Ctl
	return &Fig9Result{
		InferOver:        ctl.InferDuration.Over,
		InferUnder:       ctl.InferDuration.Under,
		LoadOver:         ctl.LoadDuration.Over,
		LoadUnder:        ctl.LoadDuration.Under,
		InferCompOver:    ctl.InferCompletion.Over,
		InferCompUnder:   ctl.InferCompletion.Under,
		LoadCompOver:     ctl.LoadCompletion.Over,
		LoadCompUnder:    ctl.LoadCompletion.Under,
		InferPredictions: ctl.InferDuration.Count(),
		LoadPredicted:    ctl.LoadDuration.Count(),
	}
}

// String implements fmt.Stringer.
func (r *Fig9Result) String() string {
	row := func(name string, h *telemetry.Histogram) []string {
		return []string{name,
			fmt.Sprintf("%d", h.Count()),
			h.Percentile(50).String(), h.Percentile(99).String(), h.Max().String()}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9 — prediction errors (%d INFER, %d LOAD predictions)\n", r.InferPredictions, r.LoadPredicted)
	b.WriteString(table([]string{"error kind", "n", "p50", "p99", "max"}, [][]string{
		row("INFER duration overpredict", r.InferOver),
		row("INFER duration underpredict", r.InferUnder),
		row("LOAD  duration overpredict", r.LoadOver),
		row("LOAD  duration underpredict", r.LoadUnder),
		row("INFER completion overpredict", r.InferCompOver),
		row("INFER completion underpredict", r.InferCompUnder),
		row("LOAD  completion overpredict", r.LoadCompOver),
		row("LOAD  completion underpredict", r.LoadCompUnder),
	}))
	return b.String()
}

// SLOScaleConfig parameterises the §6.5 "tighter SLOs at larger scale"
// table: 10 workers × 2 GPUs, the trace scaled up 1.5×, zero-length
// inputs, compared at 100ms and 25ms SLOs.
type SLOScaleConfig struct {
	Workers       int
	GPUsPerWorker int
	Functions     int
	Minutes       int
	RateScale     float64
	Copies        int
	SLOs          []time.Duration
	Seed          uint64
}

func (c SLOScaleConfig) withDefaults() SLOScaleConfig {
	if c.Workers <= 0 {
		c.Workers = 10
	}
	if c.GPUsPerWorker <= 0 {
		c.GPUsPerWorker = 2
	}
	if c.Functions <= 0 {
		c.Functions = 3000
	}
	if c.Minutes <= 0 {
		c.Minutes = 10
	}
	if c.RateScale <= 0 {
		c.RateScale = 1.5
	}
	if c.Copies <= 0 {
		c.Copies = 6
	}
	if len(c.SLOs) == 0 {
		c.SLOs = []time.Duration{100 * time.Millisecond, 25 * time.Millisecond}
	}
	return c
}

// SLOScaleRow is one SLO's row of the §6.5 table.
type SLOScaleRow struct {
	SLO       time.Duration
	Goodput   float64
	MissedSLO uint64 // admitted but exceeded the SLO
	TimedOut  uint64 // rejected/cancelled without executing
	P50       time.Duration
	P9999     time.Duration
	Max       time.Duration
}

// SLOScaleResult is the §6.5 table.
type SLOScaleResult struct {
	Config SLOScaleConfig
	Rows   []SLOScaleRow
}

// RunSLOScale reproduces the §6.5 scale table; each SLO's replay is an
// independent simulation and runs concurrently.
func RunSLOScale(cfg SLOScaleConfig) *SLOScaleResult {
	cfg = cfg.withDefaults()
	return &SLOScaleResult{Config: cfg, Rows: runner.Map(cfg.SLOs, func(slo time.Duration) SLOScaleRow {
		f8 := RunFig8(Fig8Config{
			Workers:          cfg.Workers,
			GPUsPerWorker:    cfg.GPUsPerWorker,
			Copies:           cfg.Copies,
			Functions:        cfg.Functions,
			Minutes:          cfg.Minutes,
			RateScale:        cfg.RateScale,
			SLO:              slo,
			Seed:             cfg.Seed,
			ZeroLengthInputs: true,
		})
		h := f8.Cluster.Metrics.LatencyGood
		return SLOScaleRow{
			SLO:       slo,
			Goodput:   f8.Goodput,
			MissedSLO: f8.SLOExceeded,
			TimedOut:  f8.Failed,
			P50:       h.Percentile(50),
			P9999:     h.Percentile(99.99),
			Max:       f8.MaxLatency,
		}
	})}
}

// String implements fmt.Stringer.
func (r *SLOScaleResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmtMS(row.SLO),
			fmt.Sprintf("%.0f", row.Goodput),
			fmt.Sprintf("%d", row.MissedSLO),
			fmt.Sprintf("%d", row.TimedOut),
			fmtMS(row.P50), fmtMS(row.P9999), fmtMS(row.Max),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "§6.5 table — tighter SLOs at larger scale (%d workers × %d GPUs, trace ×%.1f)\n",
		r.Config.Workers, r.Config.GPUsPerWorker, r.Config.RateScale)
	b.WriteString(table([]string{"slo", "goodput r/s", "missed slo", "timed out", "p50", "p99.99", "max"}, rows))
	return b.String()
}
