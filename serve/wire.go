package serve

import (
	"time"

	"clockwork"
)

// This file is the HTTP wire schema, shared by Server and Client so the
// two cannot drift. Durations travel as integer nanoseconds (Go's
// native time.Duration JSON encoding); failure reasons travel twice —
// as the human-readable string and as the numeric Reason code — so
// clients round-trip the typed Reason without parsing words.

// InferRequest is the POST /v1/infer body. It mirrors
// clockwork.Request field for field (minus the in-process callback).
type InferRequest struct {
	Model        string        `json:"model"`
	SLO          time.Duration `json:"slo_ns"`
	Priority     int           `json:"priority,omitempty"`
	Tenant       string        `json:"tenant,omitempty"`
	MaxBatchSize int           `json:"max_batch_size,omitempty"`
}

// InferResponse is the POST /v1/infer response body, mirroring
// clockwork.Result. Latency is the engine-observed (virtual-clock)
// end-to-end latency, the figure SLO conformance is judged by.
type InferResponse struct {
	RequestID  uint64        `json:"request_id"`
	Model      string        `json:"model"`
	Tenant     string        `json:"tenant,omitempty"`
	Success    bool          `json:"success"`
	Reason     string        `json:"reason,omitempty"`
	ReasonCode uint8         `json:"reason_code,omitempty"`
	Latency    time.Duration `json:"latency_ns"`
	Batch      int           `json:"batch,omitempty"`
	ColdStart  bool          `json:"cold_start,omitempty"`
}

// Result converts the wire form back to the public Result type.
func (r InferResponse) Result() clockwork.Result {
	return clockwork.Result{
		RequestID: r.RequestID,
		Model:     r.Model,
		Tenant:    r.Tenant,
		Success:   r.Success,
		Reason:    clockwork.Reason(r.ReasonCode),
		Latency:   r.Latency,
		Batch:     r.Batch,
		ColdStart: r.ColdStart,
	}
}

// RegisterRequest is the POST /v1/models body. With Copies == 0 it
// registers one instance named Instance; with Copies > 0 it registers
// Copies instances named "<Instance>#0" … (the RegisterCopies pattern).
// A negative Copies is refused with 400 invalid_request.
type RegisterRequest struct {
	// Instance is the serving name (or base name, with Copies > 0).
	Instance string `json:"instance"`
	// Zoo names the embedded catalogue entry to instantiate.
	Zoo    string `json:"zoo"`
	Copies int    `json:"copies,omitempty"`
}

// RegisterResponse lists the instance names actually registered.
type RegisterResponse struct {
	Instances []string `json:"instances"`
}

// ModelsResponse is the GET /v1/models body: the registered instance
// names in registration order.
type ModelsResponse struct {
	Models []string `json:"models"`
}

// WorkerRequest addresses one worker for drain/fail.
type WorkerRequest struct {
	ID int `json:"id"`
}

// WorkerResponse reports a worker operation's subject.
type WorkerResponse struct {
	ID int `json:"id"`
	// State is the worker's lifecycle state after the operation
	// ("active", "draining", "failed").
	State string `json:"state,omitempty"`
}

// StatsResponse is the GET /v1/stats body: the system Summary plus
// serving-plane facts.
type StatsResponse struct {
	clockwork.Summary
	// VirtualNow is the engine's current virtual instant; Uptime is the
	// daemon's wall-clock age. Their ratio approaches the speed
	// multiplier on an idle system.
	VirtualNow time.Duration `json:"virtual_now_ns"`
	Uptime     time.Duration `json:"uptime_ns"`
	Speed      float64       `json:"speed"`
	Workers    int           `json:"workers"`
	// Shards is the placement-group count (Config.Shards).
	Shards int `json:"shards"`
	Models int `json:"models"`
}

// AutoscalerStatusResponse is the GET /v1/admin/autoscaler body (also
// returned by POST): the closed loop's live state from the server's
// status mirrors and admission window.
type AutoscalerStatusResponse struct {
	// Enabled reports whether the loop is evaluating (it can be paused
	// via POST without tearing the ticker down).
	Enabled bool `json:"enabled"`
	// Window is the admission window currently in force, bounded by
	// [MinWindow, MaxWindow]; MinWorkers/MaxWorkers bound worker
	// scaling (equal bounds = window-only mode).
	Window     int           `json:"window"`
	MinWindow  int           `json:"min_window"`
	MaxWindow  int           `json:"max_window"`
	MinWorkers int           `json:"min_workers"`
	MaxWorkers int           `json:"max_workers"`
	Period     time.Duration `json:"period_ns"`
	// Ticks counts control periods evaluated; Decisions how many of
	// them moved anything.
	Ticks          uint64 `json:"ticks"`
	Decisions      uint64 `json:"decisions"`
	WorkersAdded   uint64 `json:"workers_added"`
	WorkersDrained uint64 `json:"workers_drained"`
	// ShedTotal counts lifetime admission-window rejections across
	// both transports.
	ShedTotal  uint64 `json:"shed_total"`
	LastReason string `json:"last_reason,omitempty"`
}

// AutoscalerUpdateRequest is the POST /v1/admin/autoscaler body. Nil
// fields are left unchanged: {"enabled":false} pauses the loop,
// {"window":256} force-sets the window (clamped to the configured
// bounds, where 0 or less means unbounded and pins MaxWindow; journaled
// like an automatic decision).
type AutoscalerUpdateRequest struct {
	Enabled *bool `json:"enabled,omitempty"`
	Window  *int  `json:"window,omitempty"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
	// Code is a stable machine-readable tag clients map back to the
	// typed clockwork errors (see codeToError / errToCode).
	Code string `json:"code"`
}
