package gpu

import (
	"fmt"
	"time"

	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

// Link is a simulated PCIe direction (host→device or device→host). It is
// a FIFO resource: transfers serialise, so a large LOAD ahead of a small
// INPUT delays the input — which is exactly why Clockwork's controller
// tracks a per-worker transfer timeline.
//
// The profiled per-model weight-transfer durations from the zoo are used
// verbatim (the table is ground truth); ad-hoc transfers (inputs/outputs)
// are priced by bytes at the link's calibrated bandwidth.
type Link struct {
	eng    *simclock.Engine
	stream *rng.Stream
	noise  Noise

	// BytesPerSecond is the effective bandwidth for byte-priced
	// transfers; calibrated to the Appendix A table (≈12.3 GB/s).
	BytesPerSecond float64
	// PerTransferOverhead is the fixed setup cost of a DMA transfer.
	PerTransferOverhead time.Duration

	busyUntil simclock.Time
	count     uint64

	// OnBusy, if set, receives every busy span (for PCIe utilisation).
	OnBusy func(from, to simclock.Time)

	freeEv []*transferEv // recycled Runner-form completion nodes
}

// DefaultBandwidth is the effective PCIe bandwidth implied by Table 1
// (weights MB / transfer ms ≈ 12.3 GB/s).
const DefaultBandwidth = 12.3 * 1024 * 1024 * 1024

// DefaultOverhead is the fixed per-transfer DMA setup cost. Small
// transfers (inputs ≈600kB) land in the paper's "10s of microseconds".
const DefaultOverhead = 10 * time.Microsecond

// NewLink returns a link with default calibration.
func NewLink(eng *simclock.Engine, stream *rng.Stream, noise Noise) *Link {
	return &Link{
		eng:                 eng,
		stream:              stream,
		noise:               noise,
		BytesPerSecond:      DefaultBandwidth,
		PerTransferOverhead: DefaultOverhead,
	}
}

// Count returns the number of transfers enqueued so far.
func (l *Link) Count() uint64 { return l.count }

// DurationForBytes prices a transfer of n bytes.
func (l *Link) DurationForBytes(n int64) time.Duration {
	if n < 0 {
		panic(fmt.Sprintf("gpu: negative transfer size %d", n))
	}
	return l.PerTransferOverhead + time.Duration(float64(n)/l.BytesPerSecond*float64(time.Second))
}

// TransferRunner receives a transfer's completion: the instants the
// transfer actually occupied the link and the on-link duration.
type TransferRunner interface {
	TransferDone(start, end simclock.Time, actual time.Duration)
}

// transferEv is one queued transfer's completion event. Several may be
// in flight on a FIFO link at once, so the nodes pool per link rather
// than living in Link fields. Engine-confined: no locks.
type transferEv struct {
	l      *Link
	start  simclock.Time
	end    simclock.Time
	actual time.Duration
	r      TransferRunner
}

func (t *transferEv) Run() {
	l, start, end, actual, r := t.l, t.start, t.end, t.actual, t.r
	t.r = nil
	l.freeEv = append(l.freeEv, t)
	if l.OnBusy != nil {
		l.OnBusy(start, end)
	}
	r.TransferDone(start, end, actual)
}

// TransferRun enqueues a transfer with a known base duration (e.g. a
// model's profiled weight-transfer time) and reports its completion to
// r. The completion event node is recycled through the link's free
// list, so nothing is allocated.
func (l *Link) TransferRun(base time.Duration, r TransferRunner) {
	if base <= 0 {
		panic(fmt.Sprintf("gpu: non-positive transfer duration %v", base))
	}
	actual := l.noise.Apply(base, l.stream)
	start := simclock.Max(l.eng.Now(), l.busyUntil)
	end := start.Add(actual)
	l.busyUntil = end
	l.count++
	var t *transferEv
	if n := len(l.freeEv); n > 0 {
		t, l.freeEv = l.freeEv[n-1], l.freeEv[:n-1]
	} else {
		t = &transferEv{l: l}
	}
	t.start, t.end, t.actual, t.r = start, end, actual, r
	l.eng.ScheduleRun(end, t)
}

// TransferBytesRun enqueues a transfer priced by size.
func (l *Link) TransferBytesRun(n int64, r TransferRunner) {
	l.TransferRun(l.DurationForBytes(n), r)
}

// QueueDelay returns how long a transfer submitted now would wait before
// starting.
func (l *Link) QueueDelay() time.Duration {
	now := l.eng.Now()
	if l.busyUntil <= now {
		return 0
	}
	return l.busyUntil.Sub(now)
}
