package serve

import (
	"errors"
	"net/http"

	"clockwork/internal/autoscale"
	"clockwork/journal"
)

// This file drives the closed control loop from the serve layer. Each
// control period Live.Every runs autoscaleTick under the stop-the-world
// barrier (Live.Do), which pauses the engine between steps and takes
// none: autoscale.Step gathers one period's signals at a single virtual
// instant and runs the pure controller, and when the decision moved
// anything journal.Apply records it (journal.Autoscale) and applies its
// worker actions; the tick resizes the admission window, which lives
// at the serve layer. A tick that moved nothing records nothing — it
// took no engine step, and replay re-applies recorded decisions
// without re-running Step — so an idle journaled daemon writes no
// records, while recovery still carries the adapted window forward.

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
	s.mu.Lock()
	shed, window := s.win.TakeShed(), s.win.Limit()
	s.mu.Unlock()
	if !s.ascEnabled.Load() {
		s.sys.DrainRecentStats()
		return
	}

	// The ascX counters are lock-free status mirrors for /metrics and
	// the admin plane — no engine call needed to observe the loop.
	op, reason := autoscale.Step(s.sys, s.asc, shed, window)
	s.ascTicks.Add(1)
	if op.Window != window || op.AddWorkers > 0 || op.Drain >= 0 {
		_, _ = journal.Apply(s.sys, s.rec, op) // Step drains only an active worker: no error
		s.ascMoves.Add(1)
	}
	s.ascAdded.Add(uint64(op.AddWorkers))
	if op.Drain >= 0 {
		s.ascDrained.Add(1)
	}
	s.mu.Lock()
	s.win.SetLimit(op.Window)
	if reason != "" {
		s.ascReason = reason
	}
	s.mu.Unlock()
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
	s.mu.Lock()
	window, shed, reason := s.win.Limit(), s.win.Shed(), s.ascReason
	s.mu.Unlock()
	return AutoscalerStatusResponse{
		Enabled:        s.ascEnabled.Load(),
		Window:         window,
		MinWindow:      cfg.MinWindow,
		MaxWindow:      cfg.MaxWindow,
		MinWorkers:     cfg.MinWorkers,
		MaxWorkers:     cfg.MaxWorkers,
		Period:         cfg.Period,
		Ticks:          s.ascTicks.Load(),
		Decisions:      s.ascMoves.Load(),
		WorkersAdded:   s.ascAdded.Load(),
		WorkersDrained: s.ascDrained.Load(),
		ShedTotal:      shed,
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
		n := s.asc.ClampWindow(*req.Window)
		if _, ok := s.apply(w, journal.Autoscale{Window: n, Drain: -1}, func() {
			s.mu.Lock()
			s.win.SetLimit(n)
			s.mu.Unlock()
		}); !ok {
			return
		}
	}
	writeJSON(w, s.autoscalerStatus())
}
