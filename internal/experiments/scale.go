package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"clockwork"
	"clockwork/internal/core"
	"clockwork/internal/modelzoo"
	"clockwork/internal/rng"
	"clockwork/internal/runner"
	"clockwork/trace"
)

// ScaleConfig parameterises the control-plane scale scenario: one
// Zipf-skewed open-loop workload driven at ≥16k model instances and
// ≥1M requests, replayed identically over different placement-group
// counts (Config.Shards) so the rows isolate what LOAD placement
// changes — client-observed throughput, the SLO-violation rate and the
// cold starts. The workload streams are cluster-independent, so every
// cell sees the same arrival instants and model choices.
type ScaleConfig struct {
	// Shards lists the placement-group counts to compare (default 1,
	// 4, 16).
	Shards []int
	// Models is the instance count (default 16384 — zoo varieties
	// cycled with #copy suffixes).
	Models int
	// Requests is the total submission count per cell (default
	// 1,000,000).
	Requests int
	// Rate is the aggregate Poisson arrival rate in r/s (default
	// 12,000 — ≈2.5× the paper's §6.5 trace, sized for Workers×GPUs).
	Rate float64
	// ZipfExp skews model popularity, weight ∝ 1/(rank+1)^ZipfExp
	// (default 0.9, MAF-like: a hot head with a long cold tail).
	ZipfExp float64
	// Workers and GPUsPerWorker fix the substrate (default 32×2; the
	// worker count must be ≥ the largest group count).
	Workers       int
	GPUsPerWorker int
	// SLO is every request's latency objective (default 100ms).
	SLO  time.Duration
	Seed uint64
	// FlightRecorder, when set, is called once per cell and the result
	// attached to that cell's system (cells run in parallel, so they
	// cannot share one recorder);
	// a pure observer (see Fig5Config).
	FlightRecorder func() *trace.Recorder
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 4, 16}
	}
	if c.Models <= 0 {
		c.Models = 16384
	}
	if c.Requests <= 0 {
		c.Requests = 1_000_000
	}
	if c.Rate <= 0 {
		c.Rate = 12_000
	}
	if c.ZipfExp <= 0 {
		c.ZipfExp = 0.9
	}
	if c.Workers <= 0 {
		c.Workers = 32
	}
	if c.GPUsPerWorker <= 0 {
		c.GPUsPerWorker = 2
	}
	if c.SLO <= 0 {
		c.SLO = 100 * time.Millisecond
	}
	return c
}

// check rejects, before any cell starts, a group count the cluster
// cannot hold (core.ClusterConfig.Validate).
func (c ScaleConfig) check() error {
	for _, n := range c.Shards {
		if err := (core.ClusterConfig{Workers: c.Workers, Shards: n}).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ScaleCell is one placement-group count's row.
type ScaleCell struct {
	Shards     int
	Requests   uint64
	Goodput    float64 // within-SLO responses per second
	Throughput float64 // all responses per second
	// ViolationRate is the fraction of requests that missed their SLO
	// end to end: failed (cancelled/rejected/timed out) plus successes
	// over the objective.
	ViolationRate   float64
	P50, P99, P9999 time.Duration
	ColdStarts      uint64
}

// ScaleResult is the placement-group comparison.
type ScaleResult struct {
	Config ScaleConfig
	Cells  []ScaleCell
}

// RunScale runs the scenario: one independent simulation per group
// count, fanned out across cores, each replaying the identical
// workload.
func RunScale(cfg ScaleConfig) *ScaleResult {
	cfg = cfg.withDefaults()
	return &ScaleResult{Config: cfg, Cells: runner.Map(cfg.Shards, func(shards int) ScaleCell {
		return runScaleCell(cfg, shards)
	})}
}

func runScaleCell(cfg ScaleConfig, shards int) ScaleCell {
	sys, err := clockwork.New(clockwork.Config{
		Workers:          cfg.Workers,
		GPUsPerWorker:    cfg.GPUsPerWorker,
		Shards:           shards,
		Seed:             cfg.Seed,
		MetricsInterval:  time.Minute,
		ZeroLengthInputs: true, // §6.5's scale methodology
	})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	if cfg.FlightRecorder != nil {
		sys.AttachFlightRecorder(cfg.FlightRecorder())
	}
	names := registerScaleModels(sys, cfg.Models)
	pickModel := zipfPicker(cfg.Models, cfg.ZipfExp, names)

	// The workload streams hang off the scenario seed alone, so every
	// cell draws the identical arrival/model sequence.
	src := rng.NewSource(cfg.Seed)
	arrive := src.Stream("scale.arrivals")
	pick := src.Stream("scale.models")
	mean := float64(time.Second) / cfg.Rate

	submitted, done := 0, 0
	var step func()
	step = func() {
		if _, err := sys.SubmitRequest(clockwork.Request{Model: pickModel(pick), SLO: cfg.SLO},
			func(clockwork.Result) { done++ }); err != nil {
			panic("experiments: " + err.Error())
		}
		submitted++
		if submitted >= cfg.Requests {
			return
		}
		sys.After(time.Duration(arrive.Exp(mean)), step)
	}
	sys.After(time.Duration(arrive.Exp(mean)), step)

	// Run until every submission has an outcome (arrivals stop by
	// themselves once the request budget is spent).
	for done < cfg.Requests {
		sys.RunFor(time.Second)
	}

	sum2 := sys.Summary()
	elapsed := sys.Now().Seconds()
	cell := ScaleCell{
		Shards:     shards,
		Requests:   sum2.Requests,
		P50:        sum2.P50,
		P99:        sum2.P99,
		P9999:      sum2.P9999,
		ColdStarts: sum2.ColdStarts,
	}
	cell.Goodput = sum2.GoodputMean
	if elapsed > 0 {
		cell.Throughput = float64(sum2.Requests) / elapsed
	}
	if sum2.Requests > 0 {
		cell.ViolationRate = float64(sum2.Failed+sum2.SLOMisses) / float64(sum2.Requests)
	}
	return cell
}

// registerScaleModels registers n instances named "<zoo>#<copy>",
// cycling the zoo varieties — the scenario's and its benchmark's
// shared model population (they must measure the same workload).
func registerScaleModels(sys *clockwork.System, n int) []string {
	zoo := modelzoo.All()
	names := make([]string, n)
	for i := range names {
		m := zoo[i%len(zoo)]
		names[i] = fmt.Sprintf("%s#%d", m.Name, i/len(zoo))
		if err := sys.RegisterModel(names[i], m.Name); err != nil {
			panic("experiments: " + err.Error())
		}
	}
	return names
}

// zipfPicker precomputes the Zipf(exp) CDF over n ranks and returns a
// sampler mapping one stream draw to a model name.
func zipfPicker(n int, exp float64, names []string) func(*rng.Stream) string {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), exp)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return func(s *rng.Stream) string {
		idx := sort.SearchFloat64s(cdf, s.Float64())
		if idx >= len(names) {
			idx = len(names) - 1
		}
		return names[idx]
	}
}

// String implements fmt.Stringer.
func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Control-plane scale — %d requests, %d models, %d workers × %d GPUs, %.0f r/s, SLO %v\n",
		r.Config.Requests, r.Config.Models, r.Config.Workers, r.Config.GPUsPerWorker,
		r.Config.Rate, r.Config.SLO)
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Shards),
			fmt.Sprintf("%d", c.Requests),
			fmt.Sprintf("%.0f", c.Throughput),
			fmt.Sprintf("%.0f", c.Goodput),
			fmt.Sprintf("%.3f%%", 100*c.ViolationRate),
			fmtMS(c.P50), fmtMS(c.P99), fmtMS(c.P9999),
			fmt.Sprintf("%d", c.ColdStarts),
		})
	}
	b.WriteString(table([]string{"shards", "requests", "t'put r/s", "goodput r/s", "violations", "p50", "p99", "p99.99", "cold"}, rows))
	return b.String()
}
