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
	"clockwork/internal/workload"
)

// SLOMultipliers are the paper's sweep points (×1.5 every epoch, from
// 1.0× the batch-1 ResNet50 execution latency up to ≈86.5×, i.e. 250ms).
var SLOMultipliers = []float64{1.0, 1.5, 2.2, 3.4, 5.1, 7.6, 11.4, 17.1, 25.6, 38.4, 57.7, 86.5}

// Fig7Config parameterises the "how low can Clockwork go" sweep (§6.3):
// N ResNet50 instances at cumulative rate R on 6 workers, with the SLO
// increasing every Epoch.
type Fig7Config struct {
	Workers     int
	Models      int     // N
	TotalRate   float64 // R, requests/second across all models
	Epoch       time.Duration
	Multipliers []float64
	Seed        uint64
}

func (c Fig7Config) withDefaults() Fig7Config {
	if c.Workers <= 0 {
		c.Workers = 6
	}
	if c.Models <= 0 {
		c.Models = 12
	}
	if c.TotalRate <= 0 {
		c.TotalRate = 600
	}
	if c.Epoch <= 0 {
		c.Epoch = 10 * time.Second
	}
	if len(c.Multipliers) == 0 {
		c.Multipliers = SLOMultipliers
	}
	return c
}

// Fig7Row is one epoch's workload satisfaction.
type Fig7Row struct {
	Multiplier   float64
	SLO          time.Duration
	Sent         uint64
	Satisfied    uint64
	Satisfaction float64
}

// Fig7Result is one configuration's sweep.
type Fig7Result struct {
	Config Fig7Config
	Rows   []Fig7Row
}

// RunFig7 reproduces Fig 7 (left) for one (N, R) configuration.
func RunFig7(cfg Fig7Config) *Fig7Result {
	cfg = cfg.withDefaults()
	cl := newSystemCluster(clockwork.Config{
		Workers: cfg.Workers, GPUsPerWorker: 1,
		Seed:            cfg.Seed,
		MetricsInterval: time.Second,
	})
	names, _ := cl.RegisterCopies("resnet50", modelzoo.ResNet50(), cfg.Models)
	base := modelzoo.ResNet50().ExecLatency(1)
	perModel := cfg.TotalRate / float64(cfg.Models)
	src := rng.NewSource(cfg.Seed)

	res := &Fig7Result{Config: cfg}
	type epochCounters struct{ sent, ok uint64 }
	counters := make([]epochCounters, len(cfg.Multipliers))

	// One Poisson arrival process per model, stopped when the last
	// epoch ends; the SLO and target counter change as epochs advance.
	sloOf := func(e int) time.Duration {
		return time.Duration(float64(base) * cfg.Multipliers[e])
	}
	endAt := simclock.Time(time.Duration(len(cfg.Multipliers)) * cfg.Epoch)

	for i, model := range names {
		workload.OpenLoop(cl.Eng, src.Stream(fmt.Sprintf("fig7.%d", i)), perModel, endAt, func() {
			e := int(int64(cl.Eng.Now()) / int64(cfg.Epoch))
			slo := sloOf(e)
			counters[e].sent++
			cl.Submit(core.SubmitSpec{Model: model, SLO: slo}, core.ResultFunc(func(r core.Result) {
				if r.Success && r.Latency <= slo {
					counters[e].ok++
				}
			}))
		})
	}
	cl.RunUntil(endAt.Add(time.Second))

	for e, m := range cfg.Multipliers {
		row := Fig7Row{Multiplier: m, SLO: sloOf(e), Sent: counters[e].sent, Satisfied: counters[e].ok}
		if row.Sent > 0 {
			row.Satisfaction = float64(row.Satisfied) / float64(row.Sent)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String implements fmt.Stringer.
func (r *Fig7Result) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", row.Multiplier),
			fmtMS(row.SLO),
			fmt.Sprintf("%d", row.Sent),
			fmt.Sprintf("%.3f", row.Satisfaction),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7 (left) — workload satisfaction, N=%d R=%.0f r/s on %d workers\n",
		r.Config.Models, r.Config.TotalRate, r.Config.Workers)
	b.WriteString(table([]string{"mult", "slo", "sent", "satisfaction"}, rows))
	return b.String()
}

// Fig7IsoConfig parameterises the isolation experiment (§6.4): 6
// latency-sensitive (LS) instances at 200 r/s each share the cluster
// with M batch clients (BC) of concurrency C and no meaningful SLO.
type Fig7IsoConfig struct {
	Workers     int
	LSModels    int
	LSRate      float64 // per LS model, r/s
	BCModels    int     // M
	BCConc      int     // C
	Epoch       time.Duration
	Multipliers []float64
	Seed        uint64
}

func (c Fig7IsoConfig) withDefaults() Fig7IsoConfig {
	if c.Workers <= 0 {
		c.Workers = 6
	}
	if c.LSModels <= 0 {
		c.LSModels = 6
	}
	if c.LSRate <= 0 {
		c.LSRate = 200
	}
	if c.BCConc <= 0 && c.BCModels > 0 {
		c.BCConc = 16
	}
	if c.Epoch <= 0 {
		c.Epoch = 10 * time.Second
	}
	if len(c.Multipliers) == 0 {
		c.Multipliers = SLOMultipliers
	}
	return c
}

// Fig7IsoRow is one epoch of the isolation experiment.
type Fig7IsoRow struct {
	Multiplier     float64
	SLO            time.Duration
	LSSatisfaction float64
	BCThroughput   float64 // r/s
}

// Fig7IsoResult is the sweep for one (M, C) scenario.
type Fig7IsoResult struct {
	Config Fig7IsoConfig
	Rows   []Fig7IsoRow
}

// RunFig7Isolation reproduces Fig 7 (right): LS workload satisfaction
// and BC throughput as the LS SLO sweeps upward.
func RunFig7Isolation(cfg Fig7IsoConfig) *Fig7IsoResult {
	cfg = cfg.withDefaults()
	cl := newSystemCluster(clockwork.Config{
		Workers: cfg.Workers, GPUsPerWorker: 1,
		Seed:            cfg.Seed,
		MetricsInterval: time.Second,
	})
	lsNames, _ := cl.RegisterCopies("ls", modelzoo.ResNet50(), cfg.LSModels)
	bcNames, _ := cl.RegisterCopies("bc", modelzoo.ResNet50(), cfg.BCModels)
	base := modelzoo.ResNet50().ExecLatency(1)
	src := rng.NewSource(cfg.Seed)

	endAt := simclock.Time(time.Duration(len(cfg.Multipliers)) * cfg.Epoch)
	type counters struct{ lsSent, lsOK, bcDone uint64 }
	epochs := make([]counters, len(cfg.Multipliers))
	epochOf := func(t simclock.Time) int {
		e := int(int64(t) / int64(cfg.Epoch))
		if e >= len(cfg.Multipliers) {
			return -1
		}
		return e
	}
	sloOf := func(e int) time.Duration {
		return time.Duration(float64(base) * cfg.Multipliers[e])
	}

	// LS: open-loop Poisson per model, SLO following the sweep.
	for i, model := range lsNames {
		workload.OpenLoop(cl.Eng, src.Stream(fmt.Sprintf("fig7iso.ls.%d", i)), cfg.LSRate, endAt, func() {
			e := epochOf(cl.Eng.Now())
			slo := sloOf(e)
			epochs[e].lsSent++
			cl.Submit(core.SubmitSpec{Model: model, SLO: slo}, core.ResultFunc(func(r core.Result) {
				if r.Success && r.Latency <= slo {
					epochs[e].lsOK++
				}
			}))
		})
	}

	// BC: closed-loop clients with an effectively unbounded SLO.
	const bcSLO = 60 * time.Second
	netLatency := cl.Config().NetLatency
	for _, name := range bcNames {
		workload.ClosedLoop(cl, name, bcSLO, cfg.BCConc, endAt, func(r core.Result) {
			if r.Success {
				// The response left the controller one client-link
				// latency ago: the link has no bandwidth cap and no
				// jitter.
				if e := epochOf(cl.Eng.Now().Add(-netLatency)); e >= 0 {
					epochs[e].bcDone++
				}
			}
		})
	}

	cl.RunUntil(endAt.Add(time.Second))

	res := &Fig7IsoResult{Config: cfg}
	for e, m := range cfg.Multipliers {
		row := Fig7IsoRow{
			Multiplier:   m,
			SLO:          sloOf(e),
			BCThroughput: float64(epochs[e].bcDone) / cfg.Epoch.Seconds(),
		}
		if epochs[e].lsSent > 0 {
			row.LSSatisfaction = float64(epochs[e].lsOK) / float64(epochs[e].lsSent)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String implements fmt.Stringer.
func (r *Fig7IsoResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", row.Multiplier),
			fmtMS(row.SLO),
			fmt.Sprintf("%.3f", row.LSSatisfaction),
			fmt.Sprintf("%.0f", row.BCThroughput),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7 (right) — isolation: %d LS @%.0f r/s vs M=%d BC (C=%d) on %d workers\n",
		r.Config.LSModels, r.Config.LSRate, r.Config.BCModels, r.Config.BCConc, r.Config.Workers)
	b.WriteString(table([]string{"mult", "slo", "LS satisfaction", "BC r/s"}, rows))
	return b.String()
}
