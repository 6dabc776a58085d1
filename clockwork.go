package clockwork

import (
	"sync/atomic"
	"time"

	_ "clockwork/internal/baseline" // registers the clipper/infaas policies
	"clockwork/internal/core"
	"clockwork/internal/simclock"
	"clockwork/trace"
)

// Config configures a serving system. The zero value is a single
// Clockwork worker with one GPU and the paper's defaults.
type Config struct {
	// Workers is the number of worker machines (default 1).
	Workers int
	// GPUsPerWorker is the number of GPUs per worker (default 1).
	GPUsPerWorker int
	// Shards is the number of placement groups (default 1 — the
	// paper's centralized controller, free to load any model on any
	// GPU). With N groups, a worker's GPUs join group (worker ID mod N)
	// and each model is loaded only onto GPUs of group (a hash of its
	// name mod N), so each group's GPUs keep a stable slice of the
	// models resident; while every worker of a group is drained or
	// failed, its models load anywhere. One controller schedules every
	// group. Requires
	// Workers >= Shards. See ARCHITECTURE.md, "Placement groups".
	Shards int
	// Policy selects the scheduler by registry name (default
	// PolicyClockwork). See RegisterPolicy and Policies.
	Policy Policy
	// Seed makes runs reproducible; equal seeds give identical runs.
	Seed uint64
	// Lookahead is the controller's scheduling horizon (default 5ms).
	Lookahead time.Duration
	// ProfileWindow is the controller's rolling measurement window per
	// action key (default: the paper's 10 actions).
	ProfileWindow int
	// PageCacheBytes overrides per-GPU weight-cache capacity
	// (default: 32GB device memory minus workspace and IO staging).
	PageCacheBytes int64
	// ExactTiming disables the hardware noise model, making action
	// durations exactly equal to their profiles (useful in tests).
	ExactTiming bool
	// MetricsInterval buckets the time-series metrics (default 1min).
	MetricsInterval time.Duration
	// ZeroLengthInputs reproduces the §6.5 scale experiment: clients
	// send zero-length inputs and workers generate inputs on arrival.
	ZeroLengthInputs bool
}

// System is a fully wired serving deployment on a virtual clock.
type System struct {
	cluster *core.Cluster
	// live is set while a Live paces the system: StartLive refuses a
	// second pacer and the simulation entry points refuse to race it.
	live atomic.Bool
}

// init installs the seam internal harnesses read raw telemetry through.
func init() {
	core.ClusterOf = func(s any) *core.Cluster { return s.(*System).cluster }
}

// New constructs a serving system. The configured policy is resolved
// through the registry; an unknown name returns an error listing every
// registered policy (it does not panic).
func New(cfg Config) (*System, error) {
	ccfg := core.ClusterConfig{
		Workers:          cfg.Workers,
		GPUsPerWorker:    cfg.GPUsPerWorker,
		Shards:           cfg.Shards,
		Seed:             cfg.Seed,
		PageCacheBytes:   cfg.PageCacheBytes,
		NoNoise:          cfg.ExactTiming,
		MetricsInterval:  cfg.MetricsInterval,
		ZeroLengthInputs: cfg.ZeroLengthInputs,
		Controller: core.Config{
			Lookahead:     cfg.Lookahead,
			ProfileWindow: cfg.ProfileWindow,
		},
	}
	cl, err := core.NewClusterWithPolicy(string(cfg.Policy), ccfg)
	if err != nil {
		return nil, err
	}
	return &System{cluster: cl}, nil
}

// RunFor advances virtual time by d, executing everything due in that
// span. Panics while a Live paces the system: the engine has one owner.
func (s *System) RunFor(d time.Duration) {
	s.checkSimulable()
	s.cluster.RunFor(d)
}

// RunUntil advances virtual time to instant t (measured from the run's
// start); a t in the past is a no-op. Panics where RunFor does.
func (s *System) RunUntil(t time.Duration) {
	s.checkSimulable()
	if d := t - s.Now(); d > 0 {
		s.cluster.RunFor(d)
	}
}

func (s *System) checkSimulable() {
	if s.live.Load() {
		panic("clockwork: RunFor/RunUntil while a Live paces the system; Stop it first")
	}
}

// Now returns the elapsed virtual time. While a live driver is pacing,
// read it from inside Live.Do or an engine-side callback, not from an
// arbitrary goroutine.
func (s *System) Now() time.Duration { return s.cluster.Eng.Now().Duration() }

// After schedules fn at now+d on the virtual clock — the hook workload
// generators use to pace themselves. While a live driver is pacing,
// call it from inside Live.Do or an engine-side callback. It panics on
// a nil fn.
func (s *System) After(d time.Duration, fn func()) {
	if fn == nil {
		panic("clockwork: After with nil fn")
	}
	eng := s.cluster.Eng
	eng.ScheduleRun(eng.Now().Add(d), simclock.Func(fn))
}

// AttachFlightRecorder wires the per-request flight recorder r into the
// control plane: every subsequent request's lifecycle (admission,
// scheduling decision, load, execution, response) is recorded into r's
// ring buffers. Attach before the system runs (RunFor /
// StartLive); the recorder is a pure observer — it never schedules
// events or consumes randomness, so runs with and without it are
// bit-identical. Attaching nil detaches. See the clockwork/trace
// package.
func (s *System) AttachFlightRecorder(r *trace.Recorder) {
	s.cluster.SetFlightRecorder(r)
}

// FlightRecorder returns the attached flight recorder, or nil.
func (s *System) FlightRecorder() *trace.Recorder { return s.cluster.FlightRecorder() }

// Summary condenses the run's metrics: the client-observed outcome
// ledger (Metrics.Total, the same one ModelStats and TenantStats
// slice) with its latency percentiles, plus Arrived.
type Summary struct {
	// Outcomes counts responses as they reach the client; Requests is
	// the number answered so far.
	core.Outcomes
	// Arrived counts requests received by the controller, including
	// those still in flight; Arrived − Requests is the number in flight.
	Arrived uint64

	P50, P99, P9999, Max time.Duration
	// GoodputMean is within-SLO responses per second over the run.
	GoodputMean float64
}

// Summary returns current aggregate metrics.
func (s *System) Summary() Summary {
	m := s.cluster.Metrics
	elapsed := s.Now().Seconds()
	var goodput float64
	if elapsed > 0 {
		goodput = float64(m.Goodput.TotalCount()) / elapsed
	}
	return Summary{
		Outcomes:    m.Total,
		Arrived:     s.cluster.Stats().Requests,
		P50:         m.LatencyAll.Percentile(50),
		P99:         m.LatencyAll.Percentile(99),
		P9999:       m.LatencyAll.Percentile(99.99),
		Max:         m.LatencyAll.Max(),
		GoodputMean: goodput,
	}
}

// LatencyPercentile returns the client-observed latency at percentile p
// (0–100) across all requests so far.
func (s *System) LatencyPercentile(p float64) time.Duration {
	return s.cluster.Metrics.LatencyAll.Percentile(p)
}
