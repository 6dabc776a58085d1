package gpu

import (
	"fmt"
	"time"

	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

// Device is a simulated GPU execution engine.
//
// In serial mode (Clockwork's mode, §4.4/C2) exactly one kernel may run
// at a time; attempting to overlap panics, because Clockwork's worker
// guarantees one-at-a-time EXEC and an overlap is a bug in the caller.
//
// In concurrent mode (the baseline/Fig 2b mode) any number of kernels may
// be submitted; the device multiplexes them with random-quantum processor
// sharing, gaining up to ConcurrencySpeedup aggregate throughput but
// introducing large, unpredictable per-kernel slowdowns — the behaviour
// the paper attributes to the proprietary hardware scheduler.
type Device struct {
	eng    *simclock.Engine
	stream *rng.Stream
	noise  Noise

	// Serial-mode state. Exactly one execution is ever in flight, so
	// the Runner-form completion context (ExecRun) lives right here and
	// the Device itself is the completion event's Runner.
	busy       bool
	busyUntil  simclock.Time
	execStart  simclock.Time
	execActual time.Duration
	execR      ExecRunner

	// Concurrent-mode state.
	active       []*kernel
	quantum      time.Duration
	quantumTimer *simclock.Timer

	// One-shot fault injection: added to the next serial execution.
	pendingDisturbance time.Duration

	// OnBusy, if set, is called with every span during which the device
	// executed work (for utilisation telemetry).
	OnBusy func(from, to simclock.Time)

	execCount uint64
}

// ConcurrencySpeedup is the maximum aggregate throughput gain from
// concurrent kernel execution (Fig 2b measures ≈25%).
const ConcurrencySpeedup = 0.25

// DefaultQuantum is the scheduling quantum of the concurrent-mode
// hardware scheduler model.
const DefaultQuantum = 100 * time.Microsecond

type kernel struct {
	remaining time.Duration
	elapsed   func() time.Duration // wall time so far, for the callback
	started   simclock.Time
	done      func(actual time.Duration)
}

// NewDevice returns a device attached to eng, drawing noise from stream.
func NewDevice(eng *simclock.Engine, stream *rng.Stream, noise Noise) *Device {
	return &Device{eng: eng, stream: stream, noise: noise, quantum: DefaultQuantum}
}

// Busy reports whether a serial execution is in flight.
func (d *Device) Busy() bool { return d.busy }

// BusyUntil returns when the current serial execution finishes
// (zero time if idle).
func (d *Device) BusyUntil() simclock.Time { return d.busyUntil }

// ExecCount returns the number of completed executions (both modes).
func (d *Device) ExecCount() uint64 { return d.execCount }

// InjectDisturbance adds a one-shot delay to the next serial execution,
// modelling an external factor (C3). Used by fault-injection tests.
func (d *Device) InjectDisturbance(extra time.Duration) {
	if extra > 0 {
		d.pendingDisturbance += extra
	}
}

// ExecRunner receives a serial execution's completion.
type ExecRunner interface {
	ExecDone(actual time.Duration)
}

// ExecFunc adapts a closure to ExecRunner.
type ExecFunc func(actual time.Duration)

func (f ExecFunc) ExecDone(actual time.Duration) { f(actual) }

// ExecRun runs one kernel in serial mode. base is the profiled execution
// latency (from the model zoo); the actual duration includes sampled
// noise and any injected disturbance, and is reported to r. ExecRun
// panics if a serial execution is already in flight — Clockwork workers
// must never overlap EXECs — so the single in-flight execution's
// context is held in Device fields and nothing is allocated.
func (d *Device) ExecRun(base time.Duration, r ExecRunner) {
	if d.busy {
		panic("gpu: overlapping serial Exec — worker must run one EXEC at a time")
	}
	if base <= 0 {
		panic(fmt.Sprintf("gpu: non-positive exec duration %v", base))
	}
	actual := d.noise.Apply(base, d.stream) + d.pendingDisturbance
	d.pendingDisturbance = 0
	start := d.eng.Now()
	d.busy = true
	d.busyUntil = start.Add(actual)
	d.execStart, d.execActual, d.execR = start, actual, r
	d.eng.ScheduleRun(d.busyUntil, d)
}

// Run completes the in-flight serial execution — the Device is its own
// completion event for ExecRun. Not for external use.
func (d *Device) Run() {
	r := d.execR
	d.execR = nil
	d.busy = false
	d.execCount++
	if d.OnBusy != nil {
		d.OnBusy(d.execStart, d.eng.Now())
	}
	r.ExecDone(d.execActual)
}

// Submit runs one kernel in concurrent mode. Any number of kernels may be
// outstanding; they share the device under the random-quantum model.
func (d *Device) Submit(base time.Duration, done func(actual time.Duration)) {
	if base <= 0 {
		panic(fmt.Sprintf("gpu: non-positive exec duration %v", base))
	}
	k := &kernel{
		remaining: d.noise.Apply(base, d.stream),
		started:   d.eng.Now(),
		done:      done,
	}
	d.active = append(d.active, k)
	d.scheduleQuantum()
}

// ActiveKernels returns the number of concurrent kernels in flight.
func (d *Device) ActiveKernels() int { return len(d.active) }

// speedup returns the aggregate service-rate multiplier for k concurrent
// kernels: 1.0 at k=1 rising to 1+ConcurrencySpeedup as k→16.
func speedup(k int) float64 {
	if k <= 1 {
		return 1.0
	}
	if k > 16 {
		k = 16
	}
	return 1.0 + ConcurrencySpeedup*float64(k-1)/15.0
}

// scheduleQuantum arms the next scheduling quantum if one is not already
// pending; idempotence keeps exactly one quantum loop alive no matter how
// completion callbacks interleave with resubmission.
func (d *Device) scheduleQuantum() {
	if d.quantumTimer != nil {
		return
	}
	d.quantumTimer = d.eng.After(d.quantum, d.runQuantum)
}

func (d *Device) runQuantum() {
	d.quantumTimer = nil
	if len(d.active) == 0 {
		return
	}
	// The hardware scheduler grants the quantum to one kernel chosen
	// uniformly at random; the effective work done is scaled up by the
	// concurrency speedup (concurrent kernels overlap memory stalls).
	idx := 0
	if len(d.active) > 1 {
		idx = d.stream.Intn(len(d.active))
	}
	k := d.active[idx]
	credit := time.Duration(float64(d.quantum) * speedup(len(d.active)))
	k.remaining -= credit
	if d.OnBusy != nil {
		d.OnBusy(d.eng.Now().Add(-d.quantum), d.eng.Now())
	}
	if k.remaining <= 0 {
		d.active[idx] = d.active[len(d.active)-1]
		d.active = d.active[:len(d.active)-1]
		d.execCount++
		k.done(d.eng.Now().Sub(k.started))
	}
	if len(d.active) > 0 {
		d.scheduleQuantum()
	}
}
