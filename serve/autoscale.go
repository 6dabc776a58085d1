package serve

import (
	"errors"
	"net/http"
	"time"

	"clockwork"
	"clockwork/internal/autoscale"
)

// This file is the actuation half of the closed control loop: package
// autoscale decides, this file observes and applies. Each control
// period Live.Every runs autoscaleTick under the stop-the-world barrier
// (Live.Do), where it gathers one period's signals at a single virtual
// instant, runs the pure controller, and actuates — window resize at
// the serve layer, worker ops and rebalance inside the engine. With
// journaling on, the tick appends exactly one record: the decision
// (recAutoscale) when anything moved, a no-op otherwise, so replay
// consumes the tick's engine step one-for-one and recovery carries the
// adapted window forward.

// AutoscaleConfig configures the closed-loop autoscaler (re-exported
// so callers outside the module can build one; see
// internal/autoscale.Config for field semantics).
type AutoscaleConfig = autoscale.Config

// ErrNoAutoscaler is returned by the autoscaler admin endpoints when
// the server was built without Options.Autoscale.
var ErrNoAutoscaler = errors.New("autoscaling is not enabled (start with -autoscale)")

// autoscaleTick runs engine-side once per control period: gather the
// period's signals, evaluate, actuate, journal. Exactly one goroutine
// (the Every ticker) triggers it, so the controller and the signal
// drains keep their single-consumer discipline.
func (s *Server) autoscaleTick() {
	// Drain the period accumulators even when paused, so a re-enable
	// starts from a fresh period instead of a backlog of stale signal.
	shed := s.shedPeriod.Swap(0)
	rs := s.sys.DrainRecentStats()
	if !s.ascEnabled.Load() {
		s.recNoop()
		return
	}

	var demand time.Duration
	gpus := 0
	for _, sd := range s.sys.DemandSnapshot() {
		demand += sd.Demand
		gpus += sd.SchedulableGPUs
	}
	window := s.MaxInFlight()
	d := s.asc.Evaluate(autoscale.Signals{
		Completed:       rs.Completed,
		Violations:      rs.Violations,
		Shed:            shed,
		P99:             rs.P99,
		SLO:             rs.MinSLO,
		Demand:          demand,
		SchedulableGPUs: gpus,
		ActiveWorkers:   s.sys.ActiveWorkers(),
		Window:          window,
	})

	added, drainID, rebal := 0, -1, false
	if d.Window != window {
		s.SetMaxInFlight(d.Window)
	}
	for i := 0; i < d.AddWorkers; i++ {
		s.sys.AddWorker()
		added++
	}
	if d.DrainWorker {
		// The decision says "drain one"; the deterministic convention
		// says which: the highest-ID active worker. The chosen ID goes
		// into the journal record so replay drains the same one.
		if id := s.highestActiveWorker(); id >= 0 {
			if err := s.sys.DrainWorker(id); err == nil {
				drainID = id
			}
		}
	}
	if d.Rebalance && (added > 0 || drainID >= 0) {
		rebal = true
		s.sys.Rebalance()
	}

	moved := d.Window != window || added > 0 || drainID >= 0 || rebal
	if s.rec != nil {
		if moved {
			s.rec.Autoscale(d.Window, added, drainID, rebal)
		} else {
			s.rec.Noop()
		}
	}

	// Lock-free status mirrors for /metrics and the admin plane — no
	// engine call needed to observe the loop.
	s.ascTicks.Add(1)
	if moved {
		s.ascMoves.Add(1)
	}
	s.ascAdded.Add(uint64(added))
	if drainID >= 0 {
		s.ascDrained.Add(1)
	}
	s.ascWindow.Store(int64(d.Window))
	if d.Reason != "" {
		s.ascMu.Lock()
		s.ascReason = d.Reason
		s.ascMu.Unlock()
	}
}

// highestActiveWorker returns the largest worker ID still in
// WorkerActive state, or -1. Engine-side read.
func (s *Server) highestActiveWorker() int {
	for id := s.sys.Workers() - 1; id >= 0; id-- {
		if st, err := s.sys.WorkerStateOf(id); err == nil && st == clockwork.WorkerActive {
			return id
		}
	}
	return -1
}

// handleAutoscalerGet (GET /v1/admin/autoscaler) reports the loop's
// status from the lock-free mirrors — no engine call, no record.
func (s *Server) handleAutoscalerGet(w http.ResponseWriter, r *http.Request) {
	if s.asc == nil {
		writeError(w, http.StatusNotFound, "no_autoscaler", ErrNoAutoscaler)
		return
	}
	writeJSON(w, s.autoscalerStatus())
}

func (s *Server) autoscalerStatus() AutoscalerStatusResponse {
	cfg := s.asc.Config()
	s.ascMu.Lock()
	reason := s.ascReason
	s.ascMu.Unlock()
	return AutoscalerStatusResponse{
		Enabled:        s.ascEnabled.Load(),
		Window:         int(s.ascWindow.Load()),
		MinWindow:      cfg.MinWindow,
		MaxWindow:      cfg.MaxWindow,
		MinWorkers:     cfg.MinWorkers,
		MaxWorkers:     cfg.MaxWorkers,
		Period:         cfg.Period,
		Ticks:          s.ascTicks.Load(),
		Decisions:      s.ascMoves.Load(),
		WorkersAdded:   s.ascAdded.Load(),
		WorkersDrained: s.ascDrained.Load(),
		ShedTotal:      s.shedTotal.Load(),
		LastReason:     reason,
	}
}

// handleAutoscalerPost (POST /v1/admin/autoscaler) pauses/resumes the
// loop and force-sets the window. A manual window set is a real
// control-plane movement: it runs engine-side and is journaled as an
// autoscale record, so recovery restores the operator's window exactly
// like an automatic one.
func (s *Server) handleAutoscalerPost(w http.ResponseWriter, r *http.Request) {
	if s.asc == nil {
		writeError(w, http.StatusNotFound, "no_autoscaler", ErrNoAutoscaler)
		return
	}
	var req AutoscalerUpdateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Enabled != nil {
		s.ascEnabled.Store(*req.Enabled)
	}
	if req.Window != nil {
		cfg := s.asc.Config()
		n := *req.Window
		if n < cfg.MinWindow {
			n = cfg.MinWindow
		}
		if n > cfg.MaxWindow {
			n = cfg.MaxWindow
		}
		doErr := s.live.Do(func() {
			if s.rec != nil {
				s.rec.Autoscale(n, 0, -1, false)
			}
			s.SetMaxInFlight(n)
			s.ascWindow.Store(int64(n))
		})
		if doErr != nil {
			writeError(w, http.StatusServiceUnavailable, "stopped", doErr)
			return
		}
	}
	writeJSON(w, s.autoscalerStatus())
}
