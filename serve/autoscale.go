package serve

import (
	"errors"
	"net/http"

	"clockwork/internal/autoscale"
	"clockwork/journal"
)

// This file drives the closed control loop from the serve layer. Each
// control period Live.Every runs autoscaleTick under the stop-the-world
// barrier (Live.Do), where autoscale.Step gathers one period's signals
// at a single virtual instant and runs the pure controller, and
// journal.Apply records and applies the resulting op's worker actions
// inside the engine; the tick resizes the admission window, which lives
// at the serve layer. With journaling on, the tick appends exactly one
// record: the decision (recAutoscale) when anything moved, a no-op
// otherwise, so replay consumes the tick's engine step one-for-one and
// recovery carries the adapted window forward.

// AutoscaleConfig configures the closed-loop autoscaler (re-exported
// so callers outside the module can build one; see
// internal/autoscale.Config for field semantics).
type AutoscaleConfig = autoscale.Config

// ErrNoAutoscaler is returned by the autoscaler admin endpoints when
// the server was built without Options.Autoscale.
var ErrNoAutoscaler = errors.New("autoscaling is not enabled (start with -autoscale)")

// autoscaleTick runs engine-side once per control period: sense and
// decide (autoscale.Step), then record and act (journal.Apply) and
// apply the window. Exactly one goroutine (the Every ticker) triggers
// it, so the controller and the signal drains keep their
// single-consumer discipline.
func (s *Server) autoscaleTick() {
	// Drain the period accumulators even when paused, so a re-enable
	// starts from a fresh period instead of a backlog of stale signal.
	shed := s.shedPeriod.Swap(0)
	if !s.ascEnabled.Load() {
		s.sys.DrainRecentStats()
		s.recNoop()
		return
	}

	// The ascX counters are lock-free status mirrors for /metrics and
	// the admin plane — no engine call needed to observe the loop.
	window := s.MaxInFlight()
	op, reason := autoscale.Step(s.sys, s.asc, shed, window)
	s.ascTicks.Add(1)
	if op.Window != window || op.AddWorkers > 0 || op.Drain >= 0 || op.Rebalance {
		_, _ = journal.Apply(s.sys, s.rec, op) // Step drains only an active worker: no error
		s.SetMaxInFlight(op.Window)
		s.ascMoves.Add(1)
	} else {
		s.recNoop()
	}
	s.ascAdded.Add(uint64(op.AddWorkers))
	if op.Drain >= 0 {
		s.ascDrained.Add(1)
	}
	s.ascWindow.Store(int64(op.Window))
	if reason != "" {
		s.ascMu.Lock()
		s.ascReason = reason
		s.ascMu.Unlock()
	}
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
		n := min(max(*req.Window, cfg.MinWindow), cfg.MaxWindow)
		doErr := s.live.Do(func() {
			_, _ = journal.Apply(s.sys, s.rec, journal.Autoscale{Window: n, Drain: -1})
			s.SetMaxInFlight(n)
			s.ascWindow.Store(int64(n))
		})
		if doErr != nil {
			writeAPIError(w, doErr)
			return
		}
	}
	writeJSON(w, s.autoscalerStatus())
}
