package workload

import (
	"fmt"
	"math"
	"time"

	"clockwork/internal/core"
	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

// FunctionKind classifies a synthetic serverless function workload,
// mirroring the behaviour classes Shahrad et al. [51] report in the
// Microsoft Azure Functions (MAF) trace that §6.5 replays.
type FunctionKind uint8

// The four behaviour classes of the MAF trace.
const (
	// KindHeavy: sustained high-rate invocations with a slow diurnal
	// swell — a small fraction of functions carrying most invocations.
	KindHeavy FunctionKind = iota
	// KindCold: very low utilisation; minutes to hours between calls.
	KindCold
	// KindBursty: on/off behaviour; quiet stretches then active bursts.
	KindBursty
	// KindPeriodic: cron-like spikes every 60 (or 15) minutes — the
	// source of Fig 8's hourly latency spikes.
	KindPeriodic
)

// String implements fmt.Stringer.
func (k FunctionKind) String() string {
	switch k {
	case KindHeavy:
		return "heavy"
	case KindCold:
		return "cold"
	case KindBursty:
		return "bursty"
	case KindPeriodic:
		return "periodic"
	default:
		return fmt.Sprintf("FunctionKind(%d)", uint8(k))
	}
}

// FunctionTrace is one function's invocation counts per minute.
type FunctionTrace struct {
	ID          int
	Kind        FunctionKind
	MinuteRates []float64 // expected invocations per minute
}

// Total returns the expected total invocations of the function.
func (f *FunctionTrace) Total() float64 {
	var s float64
	for _, r := range f.MinuteRates {
		s += r
	}
	return s
}

// Trace is a set of function workloads over a common duration.
type Trace struct {
	Minutes   int
	Functions []FunctionTrace
}

// TotalRate returns the trace-wide mean request rate in requests/second.
func (t *Trace) TotalRate() float64 {
	var s float64
	for i := range t.Functions {
		s += t.Functions[i].Total()
	}
	return s / (float64(t.Minutes) * 60)
}

// RateAtMinute returns the expected requests/second during minute m.
func (t *Trace) RateAtMinute(m int) float64 {
	var s float64
	for i := range t.Functions {
		if m < len(t.Functions[i].MinuteRates) {
			s += t.Functions[i].MinuteRates[m]
		}
	}
	return s / 60
}

// KindCounts returns how many functions fall in each class.
func (t *Trace) KindCounts() map[FunctionKind]int {
	out := make(map[FunctionKind]int)
	for i := range t.Functions {
		out[t.Functions[i].Kind]++
	}
	return out
}

// MAFConfig tunes trace synthesis. The defaults approximate the
// published MAF shape: ~1% heavy functions carrying most load, ~64%
// nearly idle, ~20% bursty, ~15% periodic (split between hourly and
// 15-minute periods).
type MAFConfig struct {
	Functions int
	Minutes   int
	// RateScale multiplies every function's rate (the §6.5 experiment
	// replays the trace "scaled up 1.5×").
	RateScale float64

	FracHeavy    float64
	FracBursty   float64
	FracPeriodic float64
	// The remainder is cold.
}

func (c MAFConfig) withDefaults() MAFConfig {
	if c.Functions <= 0 {
		c.Functions = 1000
	}
	if c.Minutes <= 0 {
		c.Minutes = 60
	}
	if c.RateScale <= 0 {
		c.RateScale = 1
	}
	if c.FracHeavy <= 0 {
		c.FracHeavy = 0.01
	}
	if c.FracBursty <= 0 {
		c.FracBursty = 0.20
	}
	if c.FracPeriodic <= 0 {
		c.FracPeriodic = 0.15
	}
	return c
}

// SynthesizeMAF generates a deterministic MAF-like trace.
func SynthesizeMAF(stream *rng.Stream, cfg MAFConfig) *Trace {
	cfg = cfg.withDefaults()
	tr := &Trace{Minutes: cfg.Minutes}
	for i := 0; i < cfg.Functions; i++ {
		f := FunctionTrace{ID: i, MinuteRates: make([]float64, cfg.Minutes)}
		u := stream.Float64()
		switch {
		case u < cfg.FracHeavy:
			f.Kind = KindHeavy
			synthHeavy(stream, &f, cfg)
		case u < cfg.FracHeavy+cfg.FracBursty:
			f.Kind = KindBursty
			synthBursty(stream, &f, cfg)
		case u < cfg.FracHeavy+cfg.FracBursty+cfg.FracPeriodic:
			f.Kind = KindPeriodic
			synthPeriodic(stream, &f, cfg)
		default:
			f.Kind = KindCold
			synthCold(stream, &f, cfg)
		}
		tr.Functions = append(tr.Functions, f)
	}
	return tr
}

func synthHeavy(s *rng.Stream, f *FunctionTrace, cfg MAFConfig) {
	// Base rate lognormal around ~300 invocations/min with a diurnal
	// sinusoid (period 24h, so over shorter traces it is a slow drift).
	base := s.LogNormal(math.Log(300), 0.8)
	phase := s.Float64() * 2 * math.Pi
	for m := range f.MinuteRates {
		diurnal := 1 + 0.3*math.Sin(2*math.Pi*float64(m)/(24*60)+phase)
		f.MinuteRates[m] = base * diurnal * cfg.RateScale
	}
}

func synthCold(s *rng.Stream, f *FunctionTrace, cfg MAFConfig) {
	// Expected gap between invocations: minutes to hours.
	rate := s.LogNormal(math.Log(0.05), 1.2) // invocations/min
	for m := range f.MinuteRates {
		f.MinuteRates[m] = rate * cfg.RateScale
	}
}

func synthBursty(s *rng.Stream, f *FunctionTrace, cfg MAFConfig) {
	// Two-state on/off process: mean off 30min, mean on 5min.
	on := s.Bernoulli(5.0 / 35.0)
	burstRate := s.LogNormal(math.Log(20), 1.0)
	for m := range f.MinuteRates {
		if on {
			f.MinuteRates[m] = burstRate * cfg.RateScale
			if s.Bernoulli(1.0 / 5.0) {
				on = false
			}
		} else {
			f.MinuteRates[m] = 0.01 * cfg.RateScale
			if s.Bernoulli(1.0 / 30.0) {
				on = true
			}
		}
	}
}

func synthPeriodic(s *rng.Stream, f *FunctionTrace, cfg MAFConfig) {
	// Hourly (2/3 of periodic functions) or 15-minute (1/3) spikes of
	// one minute, aligned to the period (the MAF paper observes strong
	// alignment, which is what makes Fig 8's spikes visible).
	period := 60
	if s.Bernoulli(1.0 / 3.0) {
		period = 15
	}
	offset := s.Intn(3) // most cron jobs fire at the top of the period
	spike := s.LogNormal(math.Log(60), 0.8)
	base := 0.02
	for m := range f.MinuteRates {
		if m%period == offset {
			f.MinuteRates[m] = spike * cfg.RateScale
		} else {
			f.MinuteRates[m] = base * cfg.RateScale
		}
	}
}

// Replayer drives a Trace against a cluster, mapping functions onto
// model instances round-robin (§6.5 replays "four or five function
// workloads for each model instance").
type Replayer struct {
	cl     *core.Cluster
	trace  *Trace
	models []string
	slo    time.Duration
	stream *rng.Stream

	sent uint64
}

// NewReplayer binds a trace to a cluster and model set.
func NewReplayer(cl *core.Cluster, stream *rng.Stream, trace *Trace, models []string, slo time.Duration) *Replayer {
	if len(models) == 0 {
		panic("workload: replayer needs models")
	}
	return &Replayer{cl: cl, trace: trace, models: models, slo: slo, stream: stream}
}

// Sent returns the number of requests issued so far.
func (rp *Replayer) Sent() uint64 { return rp.sent }

// Start schedules the whole replay: for each minute and function, a
// Poisson-distributed number of arrivals lands uniformly within the
// minute, targeted at the function's model instance. Minutes chain
// lazily so the event heap holds at most one minute of arrivals.
func (rp *Replayer) Start() {
	rp.cl.Eng.ScheduleRun(rp.cl.Eng.Now(), simclock.Func(func() { rp.scheduleMinuteBody(0) }))
}

func (rp *Replayer) scheduleMinuteBody(m int) {
	if m >= rp.trace.Minutes {
		return
	}
	for i := range rp.trace.Functions {
		f := &rp.trace.Functions[i]
		rate := f.MinuteRates[m]
		if rate <= 0 {
			continue
		}
		n := rp.stream.Poisson(rate)
		model := rp.models[f.ID%len(rp.models)]
		for k := 0; k < n; k++ {
			at := time.Duration(rp.stream.Float64() * float64(time.Minute))
			rp.cl.Eng.ScheduleRun(rp.cl.Eng.Now().Add(at), simclock.Func(func() {
				rp.sent++
				rp.cl.Submit(0, core.SubmitSpec{Model: model, SLO: rp.slo}, nil)
			}))
		}
	}
	rp.cl.Eng.ScheduleRun(rp.cl.Eng.Now().Add(time.Minute), simclock.Func(func() { rp.scheduleMinuteBody(m + 1) }))
}
