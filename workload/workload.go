// Package workload is the public face of the trace-synthesis harness:
// the Microsoft-Azure-Functions-like workload of §6.5 (heavy, cold,
// bursty and periodic function classes) behind a stable import path, so
// tooling can generate traces without reaching into clockwork/internal.
package workload

import (
	"time"

	"clockwork/internal/rng"
	"clockwork/internal/workload"
)

// MAFConfig parameterises trace synthesis.
type MAFConfig = workload.MAFConfig

// Trace is a synthesized multi-function invocation trace.
type Trace = workload.Trace

// FunctionKind classifies a synthetic serverless function workload.
type FunctionKind = workload.FunctionKind

// Function workload classes (the §6.5 mixture).
const (
	KindHeavy    = workload.KindHeavy
	KindCold     = workload.KindCold
	KindBursty   = workload.KindBursty
	KindPeriodic = workload.KindPeriodic
)

// SynthesizeMAF generates a Microsoft-Azure-Functions-like trace.
// Equal (seed, cfg) pairs give identical traces.
func SynthesizeMAF(seed uint64, cfg MAFConfig) *Trace {
	return workload.SynthesizeMAF(rng.NewSource(seed).Stream("tracegen"), cfg)
}

// Arrivals draws open-loop inter-arrival gaps from the same seeded
// exponential distribution the §6.3 open-loop arrivals use, exposed
// publicly so wall-clock load generators (cmd/clockwork-loadgen) pace
// arrivals with the paper's Poisson process. Equal (seed, rate) pairs
// give identical gap sequences. Not safe for concurrent use; give each
// generator goroutine its own Arrivals.
type Arrivals struct {
	stream *rng.Stream
	rate   float64
}

// NewPoissonArrivals returns a Poisson arrival process at ratePerSec
// requests per second. It panics on a non-positive rate, mirroring the
// internal open-loop driver.
func NewPoissonArrivals(seed uint64, ratePerSec float64) *Arrivals {
	if ratePerSec <= 0 {
		panic("workload: non-positive rate")
	}
	return &Arrivals{stream: rng.NewSource(seed).Stream("arrivals"), rate: ratePerSec}
}

// Next draws the gap to the next arrival.
func (a *Arrivals) Next() time.Duration {
	return time.Duration(a.stream.Exp(1.0/a.rate) * float64(time.Second))
}
