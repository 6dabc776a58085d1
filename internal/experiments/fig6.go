package experiments

import (
	"fmt"
	"strings"
	"time"

	"clockwork"
	"clockwork/internal/core"
	"clockwork/internal/modelzoo"
	"clockwork/internal/rng"
	"clockwork/internal/simclock"
	"clockwork/internal/telemetry"
	"clockwork/internal/workload"
)

// Fig6Config parameterises the single-worker scale-up experiment (§6.2):
// a Minor workload (one model, steady 200 r/s) runs throughout; from t=0
// the Major workload activates one additional model per ActivationPeriod
// and spreads MajorRate evenly across all active models, driving the
// worker from GPU-bound to PCIe-bound.
type Fig6Config struct {
	TotalModels      int           // Major models (paper: 3,600)
	ActivationPeriod time.Duration // one new model per period (paper: 1s)
	MajorRate        float64       // total Major r/s (paper: 1,000)
	MinorRate        float64       // Minor r/s (paper: 200)
	PreRun           time.Duration // Minor-only lead-in (paper: 15 min)
	Duration         time.Duration // Major phase (paper: 60 min)
	SLO              time.Duration // paper: 100ms
	// PageCacheBytes defaults to 201 ResNet50s' worth (the capacity at
	// which the paper's worker starts swapping, t≈3.5 min).
	PageCacheBytes int64
	Seed           uint64
}

func (c Fig6Config) withDefaults() Fig6Config {
	if c.TotalModels <= 0 {
		c.TotalModels = 3600
	}
	if c.ActivationPeriod <= 0 {
		c.ActivationPeriod = time.Second
	}
	if c.MajorRate <= 0 {
		c.MajorRate = 1000
	}
	if c.MinorRate <= 0 {
		c.MinorRate = 200
	}
	if c.PreRun <= 0 {
		c.PreRun = 2 * time.Minute
	}
	if c.Duration <= 0 {
		c.Duration = time.Duration(c.TotalModels)*c.ActivationPeriod + 2*time.Minute
	}
	if c.SLO <= 0 {
		c.SLO = 100 * time.Millisecond
	}
	if c.PageCacheBytes <= 0 {
		pages := int64(modelzoo.ResNet50().Pages(16 * 1024 * 1024))
		c.PageCacheBytes = 201 * pages * 16 * 1024 * 1024
	}
	return c
}

// Fig6Minute is one minute of the experiment's five panels.
type Fig6Minute struct {
	Minute        int
	MinorGoodput  float64
	MajorGoodput  float64
	MinorP99      time.Duration
	MajorP99      time.Duration
	MaxLatency    time.Duration
	ColdStartFrac float64 // fraction of Major requests that were cold
	PCIUtil       float64
	GPUUtil       float64
}

// Fig6Result is the experiment output.
type Fig6Result struct {
	Config       Fig6Config
	Minutes      []Fig6Minute
	MaxLatency   time.Duration
	SLOViolated  uint64 // successful responses exceeding the SLO
	ActiveModels int
}

// RunFig6 reproduces Fig 6: serving thousands of models from one worker.
func RunFig6(cfg Fig6Config) *Fig6Result {
	cfg = cfg.withDefaults()
	cl := newSystemCluster(clockwork.Config{
		Workers: 1, GPUsPerWorker: 1,
		PageCacheBytes:  cfg.PageCacheBytes,
		Seed:            cfg.Seed,
		MetricsInterval: time.Minute,
	})
	minorName := "minor"
	cl.RegisterModel(minorName, modelzoo.ResNet50())
	majorNames, _ := cl.RegisterCopies("major", modelzoo.ResNet50(), cfg.TotalModels)

	src := rng.NewSource(cfg.Seed)
	minorStream := src.Stream("fig6.minor")
	majorStream := src.Stream("fig6.major")

	start := simclock.Time(cfg.PreRun) // Major activation starts here
	end := start.Add(cfg.Duration)

	// Per-minute, per-class telemetry.
	minorGood := telemetry.NewTimeSeries(time.Minute)
	majorGood := telemetry.NewTimeSeries(time.Minute)
	minorLat := map[int]*telemetry.Histogram{}
	majorLat := map[int]*telemetry.Histogram{}
	majorCold := telemetry.NewTimeSeries(time.Minute)
	majorTotal := telemetry.NewTimeSeries(time.Minute)
	latAt := func(m map[int]*telemetry.Histogram, idx int) *telemetry.Histogram {
		h, ok := m[idx]
		if !ok {
			h = telemetry.NewHistogram()
			m[idx] = h
		}
		return h
	}
	var maxLatency time.Duration
	var violated uint64

	submit := func(model string, minor bool) {
		cl.Submit(core.SubmitSpec{Model: model, SLO: cfg.SLO}, core.ResultFunc(func(r core.Result) {
			now := cl.Eng.Now()
			idx := int(int64(now) / int64(time.Minute))
			if r.Latency > maxLatency {
				maxLatency = r.Latency
			}
			if r.Success && r.Latency > cfg.SLO {
				violated++
			}
			if minor {
				latAt(minorLat, idx).Observe(r.Latency)
				if r.Success && r.Latency <= cfg.SLO {
					minorGood.Incr(now)
				}
				return
			}
			latAt(majorLat, idx).Observe(r.Latency)
			majorTotal.Incr(now)
			if r.ColdStart {
				majorCold.Incr(now)
			}
			if r.Success && r.Latency <= cfg.SLO {
				majorGood.Incr(now)
			}
		}))
	}

	// Minor workload: Poisson at MinorRate for the whole experiment.
	workload.OpenLoop(cl.Eng, minorStream, cfg.MinorRate, end, func() { submit(minorName, true) })

	// Major workload: aggregate Poisson at MajorRate, each arrival
	// uniformly targeting one of the currently active models.
	active := 0
	cl.Eng.ScheduleRun(start, simclock.Func(func() {
		workload.OpenLoop(cl.Eng, majorStream, cfg.MajorRate, end, func() {
			if active > 0 {
				submit(majorNames[majorStream.Intn(active)], false)
			}
		})
	}))
	// Activation chain: one more Major model per period.
	var activate func()
	activate = func() {
		if active >= cfg.TotalModels || cl.Eng.Now() >= end {
			return
		}
		active++
		cl.Eng.ScheduleRun(cl.Eng.Now().Add(cfg.ActivationPeriod), simclock.Func(activate))
	}
	cl.Eng.ScheduleRun(start, simclock.Func(activate))

	cl.RunUntil(end.Add(2 * cfg.SLO))

	res := &Fig6Result{Config: cfg, MaxLatency: maxLatency, SLOViolated: violated, ActiveModels: active}
	// Only whole minutes inside the run; the drain window after `end`
	// would otherwise appear as a near-empty trailing bucket.
	minutes := int(int64(end) / int64(time.Minute))
	for m := 0; m < minutes; m++ {
		row := Fig6Minute{
			Minute:       m - int(cfg.PreRun/time.Minute), // paper's t=0 is Major start
			MinorGoodput: minorGood.Rate(m),
			MajorGoodput: majorGood.Rate(m),
			PCIUtil:      cl.Metrics.PCIUtilFraction(m),
			GPUUtil:      cl.Metrics.GPUUtilFraction(m),
		}
		if h := minorLat[m]; h != nil {
			row.MinorP99 = h.Percentile(99)
		}
		if h := majorLat[m]; h != nil {
			row.MajorP99 = h.Percentile(99)
			row.MaxLatency = h.Max()
		}
		if total := majorTotal.Sum(m); total > 0 {
			row.ColdStartFrac = majorCold.Sum(m) / total
		}
		res.Minutes = append(res.Minutes, row)
	}
	return res
}

// String implements fmt.Stringer.
func (r *Fig6Result) String() string {
	rows := make([][]string, 0, len(r.Minutes))
	for _, m := range r.Minutes {
		rows = append(rows, []string{
			fmt.Sprintf("%d", m.Minute),
			fmt.Sprintf("%.0f", m.MinorGoodput),
			fmt.Sprintf("%.0f", m.MajorGoodput),
			fmtMS(m.MinorP99), fmtMS(m.MajorP99),
			fmt.Sprintf("%.0f%%", 100*m.ColdStartFrac),
			fmt.Sprintf("%.0f%%", 100*m.PCIUtil),
			fmt.Sprintf("%.0f%%", 100*m.GPUUtil),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6 — scale-up to %d models on one worker (SLO %v)\n", r.Config.TotalModels, r.Config.SLO)
	fmt.Fprintf(&b, "max latency %v; %d successful responses exceeded the SLO\n", r.MaxLatency, r.SLOViolated)
	b.WriteString(table([]string{"min", "minor r/s", "major r/s", "minor p99", "major p99", "cold", "pci", "gpu"}, rows))
	return b.String()
}
