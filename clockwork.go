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
	// Shards partitions the control plane into this many scheduler
	// shards (default 1 — the paper's centralized controller, which its
	// §8 names as the scaling bottleneck). Each shard schedules a
	// disjoint slice of the workers and a disjoint subset of the
	// models; a periodic rebalancer migrates models between shards when
	// demand skews. Requires Workers >= Shards. See ARCHITECTURE.md.
	Shards int
	// RebalanceInterval is the cross-shard rebalancer's virtual-time
	// period (default 1s; meaningful only with Shards > 1).
	RebalanceInterval time.Duration
	// EnginePerShard gives every scheduler shard its own event engine
	// and, in live mode, its own pacing goroutine — an N-shard control
	// plane can then use N cores. The shards' virtual clocks stay within
	// a bounded skew window of each other (see SkewBound); cross-shard
	// interactions travel through synchronised handoffs and
	// whole-cluster operations run under a stop-the-world barrier
	// (Live.Do). Simulation entry points (RunFor/RunUntil) are
	// unavailable: an EnginePerShard system must be driven live via
	// StartLive. Bit-exact reproducibility is a single-engine property —
	// with EnginePerShard the cross-shard interleaving is wall-clock
	// dependent, exactly like injection timing in live mode.
	EnginePerShard bool
	// SkewBound caps how far one shard's virtual clock may run ahead of
	// a lagging sibling's in EnginePerShard mode (the conservative-PDES
	// lookahead). Zero derives it from the cross-shard interaction
	// floor: no shard can affect another in under one network latency,
	// widened so an OS scheduling quantum at high speed multipliers does
	// not throttle healthy shards. Ignored without EnginePerShard.
	SkewBound time.Duration
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
		Workers:           cfg.Workers,
		GPUsPerWorker:     cfg.GPUsPerWorker,
		Shards:            cfg.Shards,
		RebalanceInterval: cfg.RebalanceInterval,
		EnginePerShard:    cfg.EnginePerShard,
		SkewBound:         cfg.SkewBound,
		Seed:              cfg.Seed,
		PageCacheBytes:    cfg.PageCacheBytes,
		NoNoise:           cfg.ExactTiming,
		MetricsInterval:   cfg.MetricsInterval,
		ZeroLengthInputs:  cfg.ZeroLengthInputs,
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
// span. Panics with Config.EnginePerShard: a multi-engine system has no
// single deterministic clock to step — drive it live via StartLive.
// Panics, too, while a Live paces the system: the engine has one owner.
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

// Now returns the elapsed virtual time. With Config.EnginePerShard this
// is shard 0's clock (the shards stay within the skew bound of each
// other); while a live driver is pacing, read it from inside Live.Do or
// an engine-side callback, not from an arbitrary goroutine.
func (s *System) Now() time.Duration { return s.cluster.Eng.Now().Duration() }

// After schedules fn at now+d on the virtual clock — the hook workload
// generators use to pace themselves. With Config.EnginePerShard it
// schedules on shard 0's engine and must run on that engine's goroutine
// (inside Live.Do, or a callback already on shard 0). It panics on a
// nil fn.
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
// per-shard ring buffers. Attach before the system runs (RunFor /
// StartLive); the recorder is a pure observer — it never schedules
// events or consumes randomness, so runs with and without it are
// bit-identical. Attaching nil detaches. See the clockwork/trace
// package.
func (s *System) AttachFlightRecorder(r *trace.Recorder) {
	s.cluster.SetFlightRecorder(r)
}

// FlightRecorder returns the attached flight recorder, or nil.
func (s *System) FlightRecorder() *trace.Recorder { return s.cluster.FlightRecorder() }

// Summary condenses the run's client-observed metrics.
type Summary struct {
	Requests  uint64
	Succeeded uint64
	Failed    uint64
	// SLOMisses counts successful responses that exceeded their SLO.
	SLOMisses uint64
	// Cancelled counts requests rejected in advance by admission
	// control; Rejected counts worker-side schedule misses.
	Cancelled uint64
	Rejected  uint64

	P50, P99, P9999, Max time.Duration
	// GoodputMean is within-SLO responses per second over the run.
	GoodputMean float64
	// ColdStarts counts requests whose model was not resident.
	ColdStarts uint64
}

// Summary returns current aggregate metrics, summed across all
// scheduler shards.
func (s *System) Summary() Summary {
	m := s.cluster.Metrics
	st := s.cluster.Stats()
	elapsed := s.Now().Seconds()
	var goodput float64
	if elapsed > 0 {
		goodput = float64(m.Goodput.TotalCount()) / elapsed
	}
	return Summary{
		Requests:    st.Requests,
		Succeeded:   st.Succeeded,
		Failed:      m.Failures.Value(),
		SLOMisses:   m.SLOMisses.Value(),
		Cancelled:   st.Cancelled,
		Rejected:    st.Rejected,
		P50:         m.LatencyAll.Percentile(50),
		P99:         m.LatencyAll.Percentile(99),
		P9999:       m.LatencyAll.Percentile(99.99),
		Max:         m.LatencyAll.Max(),
		GoodputMean: goodput,
		ColdStarts:  st.ColdStart,
	}
}

// LatencyPercentile returns the client-observed latency at percentile p
// (0–100) across all requests so far.
func (s *System) LatencyPercentile(p float64) time.Duration {
	return s.cluster.Metrics.LatencyAll.Percentile(p)
}
