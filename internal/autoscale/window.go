package autoscale

import "clockwork/trace"

// Window is the admission window: a limit on requests admitted but not
// yet released (0 = unbounded), their count, and the requests shed at
// the limit — counted per control period for TakeShed, over the
// lifetime for Shed, and in the flight recorder as SLO-miss provenance,
// since a shed request never reaches the engine. It is not safe for
// concurrent use: the daemon holds one under its server mutex, the
// autoscale experiment uses one on the engine goroutine.
type Window struct {
	limit, inflight  int
	periodShed, shed uint64
	flight           *trace.Recorder
}

// NewWindow returns an empty window at limit whose sheds flight records
// (nil records nothing).
func NewWindow(limit int, flight *trace.Recorder) Window {
	return Window{limit: limit, flight: flight}
}

// Admit takes a slot and reports true or, when the window is full,
// counts a shed and reports false.
func (w *Window) Admit() bool {
	if w.limit > 0 && w.inflight >= w.limit {
		w.periodShed++
		w.shed++
		w.flight.RecordShed()
		return false
	}
	w.inflight++
	return true
}

// Release frees a slot Admit took. It panics when no slot is taken: a
// count below zero would widen the window for good.
func (w *Window) Release() {
	if w.inflight == 0 {
		panic("autoscale: Window.Release without a matching Admit")
	}
	w.inflight--
}

// SetLimit changes the limit. It never evicts: below the in-flight
// count, nothing is admitted until releases bring the count under it.
func (w *Window) SetLimit(n int) { w.limit = n }

// TakeShed returns the sheds since its last call and zeroes that count.
func (w *Window) TakeShed() uint64 {
	n := w.periodShed
	w.periodShed = 0
	return n
}

// Limit returns the limit in force (0 = unbounded).
func (w *Window) Limit() int { return w.limit }

// InFlight returns the number of admitted requests not yet released.
func (w *Window) InFlight() int { return w.inflight }

// Shed returns the number of requests shed over the window's lifetime.
func (w *Window) Shed() uint64 { return w.shed }
