package serve

// Flight-recorder admin plane. GET /v1/admin/trace dumps every retained
// trace as Chrome trace-event / Perfetto JSON (open it at
// https://ui.perfetto.dev); POST /v1/admin/trace flips recording on or
// off and moves the sample rate at runtime. The controls are atomics on
// the recorder — no engine call — while the dump snapshots the rings
// under the same single-virtual-instant engine entry every other
// consistent read uses (Live.Do).

import (
	"errors"
	"net/http"

	"clockwork/trace"
)

// TraceControlRequest is the POST /v1/admin/trace body. Both fields are
// optional; omitted fields leave the current setting untouched, so an
// empty body is a pure status read.
type TraceControlRequest struct {
	Enabled    *bool    `json:"enabled,omitempty"`
	SampleRate *float64 `json:"sample_rate,omitempty"`
}

// TraceStatusResponse answers POST /v1/admin/trace with the settings
// now in force plus the recorder's lifetime counters.
type TraceStatusResponse struct {
	Enabled    bool        `json:"enabled"`
	SampleRate float64     `json:"sample_rate"`
	Stats      trace.Stats `json:"stats"`
}

// handleTraceGet (GET /v1/admin/trace) exports the flight recorder's
// retained traces as Perfetto-loadable JSON. The ring snapshot runs
// engine-side so every span reflects one virtual instant; the wall
// correlation comes from the live driver's origin, letting the consumer
// align virtual timestamps with external logs.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	var snap *trace.Snapshot
	if !s.do(w, func() {
		snap = s.flight.Snapshot()
		snap.VirtualNow = s.sys.Now()
	}) {
		return
	}
	if wall, virtual, ok := s.live.WallOrigin(); ok {
		snap.WallOrigin = wall
		snap.VirtualOrigin = virtual
	}
	snap.Speed = s.live.Speed()
	w.Header().Set("Content-Type", "application/json")
	if err := trace.WritePerfetto(w, snap); err != nil {
		// The status line is already on the wire; nothing to do but
		// drop the connection mid-body.
		return
	}
}

// handleTracePost (POST /v1/admin/trace) adjusts recording at runtime.
// The settings live in atomics read by the engine-side hooks, so no
// engine injection is needed and the change takes effect on the next
// request the hooks see.
func (s *Server) handleTracePost(w http.ResponseWriter, r *http.Request) {
	var req TraceControlRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.SampleRate != nil {
		if *req.SampleRate < 0 || *req.SampleRate > 1 {
			writeError(w, http.StatusBadRequest, "invalid_request",
				errors.New("sample_rate must be in [0, 1]"))
			return
		}
		s.flight.SetSampleRate(*req.SampleRate)
	}
	if req.Enabled != nil {
		s.flight.SetEnabled(*req.Enabled)
	}
	// The recorder's counters are engine-side state; read them under the
	// same consistent entry the dump uses.
	var st trace.Stats
	if s.do(w, func() { st = s.flight.Aggregate().Stats }) {
		writeJSON(w, TraceStatusResponse{
			Enabled:    s.flight.Enabled(),
			SampleRate: s.flight.SampleRate(),
			Stats:      st,
		})
	}
}
