// Package trace is Clockwork's deterministic flight recorder: an
// engine-side span recorder that captures every sampled request's full
// lifecycle with virtual timestamps — admitted, scheduled (chosen GPU,
// batch, predicted execution), cold-start load, execution start/end
// (predicted vs actual), network hops, final outcome — into bounded
// ring buffers.
//
// Three properties make it a *flight recorder* rather than a logger:
//
//   - Deterministic sampling. The keep/drop decision is a pure function
//     of (request ID, sample rate) — a splitmix64 hash of the ID against
//     a rate threshold — so the same requests are sampled across
//     live runs and journal replays, and toggling tracing can
//     never perturb scheduling (hooks only append to recorder state;
//     they never schedule events, read RNG streams, or mint IDs).
//   - Violation retention. The last N SLO-violating traces are always
//     retained regardless of the sample rate, so a postmortem has the
//     requests that matter even at rate 0.
//   - Provenance. Every violation, cancel, and shed is attributed to a
//     cause — queueing, cold start, mispredict, admission shed, worker
//     loss — and counted per model and per tenant.
//
// The recorder is attached before any engine runs (System.
// AttachFlightRecorder) and read only under a stopped-world view (a
// Live.Do barrier in live mode, quiescence in simulation), which is
// what lets its state go lock-free on the engine hot path.
package trace

import (
	"fmt"
	"time"
)

// Cause attributes an SLO violation (or outright failure) to the stage
// of the serving pipeline that spent the budget.
type Cause uint8

// The provenance taxonomy. Every violation/cancel/shed maps to exactly
// one cause; CauseNone marks successful in-SLO requests.
const (
	// CauseNone: the request succeeded within its SLO.
	CauseNone Cause = iota
	// CauseQueueing: the request waited behind other work (warm model,
	// accurate predictions — capacity, not mechanism, was the problem).
	CauseQueueing
	// CauseColdStart: the model was not GPU-resident on arrival and the
	// weight transfer consumed the budget.
	CauseColdStart
	// CauseMispredict: the controller's timing prediction was wrong —
	// the worker rejected the action's window, the deadline passed in
	// flight, or actual execution overran the predicted duration.
	CauseMispredict
	// CauseAdmissionShed: the serving layer shed the request before it
	// reached the control plane (admission overload control).
	CauseAdmissionShed
	// CauseWorkerLoss: the worker executing the request failed.
	CauseWorkerLoss
)

// String implements fmt.Stringer with stable snake_case labels (these
// are Prometheus label values and Perfetto args).
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseQueueing:
		return "queueing"
	case CauseColdStart:
		return "cold_start"
	case CauseMispredict:
		return "mispredict"
	case CauseAdmissionShed:
		return "admission_shed"
	case CauseWorkerLoss:
		return "worker_loss"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// Failure-reason codes, mirroring internal/core's Reason constants so
// the recorder can classify outcomes without importing the engine
// (internal/core imports this package, not the reverse). A compile-time
// assertion in internal/core pins the two enums together.
const (
	ReasonNone uint8 = iota
	ReasonCancelled
	ReasonRejected
	ReasonTimeout
	ReasonWorkerFailed
	ReasonUnregistered
)

// Stage indexes the latency decomposition of one request.
type Stage uint8

// The stages every request's end-to-end latency decomposes into:
// admit + queue + exec + deliver spans the client-observed latency
// exactly; load is the overlapping cold-start weight transfer (a
// sub-interval of queue, reported separately).
const (
	// StageAdmit: client send → controller admission (input transfer +
	// client→controller network).
	StageAdmit Stage = iota
	// StageQueue: admission → execution start (scheduler queueing,
	// including any cold-start load wait).
	StageQueue
	// StageLoad: the cold-start weight transfer overlapping the queue
	// wait (cold requests only; a sub-interval of StageQueue).
	StageLoad
	// StageExec: on-GPU execution.
	StageExec
	// StageDeliver: execution end → client receipt (output transfer +
	// result and response network hops).
	StageDeliver

	numStages
)

// String implements fmt.Stringer with stable metric label values.
func (s Stage) String() string {
	switch s {
	case StageAdmit:
		return "admit"
	case StageQueue:
		return "queue"
	case StageLoad:
		return "load"
	case StageExec:
		return "exec"
	case StageDeliver:
		return "deliver"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// Stages lists the decomposition in pipeline order.
var Stages = []Stage{StageAdmit, StageQueue, StageLoad, StageExec, StageDeliver}

// RequestTrace is one request's recorded lifecycle. All instants are
// virtual-clock offsets from the engine epoch; the zero value means the
// event never happened (e.g. ExecStart stays 0 for a request cancelled
// in queue).
type RequestTrace struct {
	ID     uint64 `json:"id"`
	Model  string `json:"model"`
	Tenant string `json:"tenant,omitempty"`
	// Shard is the model's placement group (0 with one group).
	Shard int `json:"shard"`

	SLO      time.Duration `json:"slo"`
	Priority int           `json:"priority,omitempty"`

	// Sampled reports the head-based sampling decision for this request
	// (a pure function of ID and sample rate). Unsampled violations
	// still appear in dumps via the violation ring.
	Sampled bool `json:"sampled"`
	// ColdStart reports whether the model had no GPU-resident replica
	// when the request arrived.
	ColdStart bool `json:"cold_start,omitempty"`
	// QueueDepth is the model's queue length immediately after this
	// request was enqueued (its position, 1-based).
	QueueDepth int `json:"queue_depth,omitempty"`

	// ---- lifecycle instants (virtual offsets; 0 = not reached) ----

	// ClientSend is the instant the client handed the request to its
	// network link.
	ClientSend time.Duration `json:"client_send"`
	// AdmittedAt is the controller-side admission instant.
	AdmittedAt time.Duration `json:"admitted"`
	// SchedAt is the instant the scheduler dispatched the INFER action
	// carrying this request.
	SchedAt time.Duration `json:"sched_at,omitempty"`
	// PredStart/PredExec are the scheduler's predictions at dispatch:
	// the action window's opening instant and the expected execution
	// duration.
	PredStart time.Duration `json:"pred_start,omitempty"`
	PredExec  time.Duration `json:"pred_exec,omitempty"`
	// LoadStart/LoadEnd bound the cold-start weight transfer attributed
	// to this request (cold requests whose model loaded while they
	// queued; zero otherwise).
	LoadStart time.Duration `json:"load_start,omitempty"`
	LoadEnd   time.Duration `json:"load_end,omitempty"`
	// ExecStart/ExecEnd bound the measured on-GPU execution.
	ExecStart time.Duration `json:"exec_start,omitempty"`
	ExecEnd   time.Duration `json:"exec_end,omitempty"`
	// RespondedAt is the controller-side response instant.
	RespondedAt time.Duration `json:"responded,omitempty"`
	// DoneAt is the client-side completion instant.
	DoneAt time.Duration `json:"done"`

	// ---- scheduler decision ----

	ActionID uint64 `json:"action,omitempty"`
	Worker   int    `json:"worker,omitempty"`
	GPU      int    `json:"gpu,omitempty"`
	Batch    int    `json:"batch,omitempty"`

	// ---- outcome ----

	// Latency is the client-observed end-to-end latency.
	Latency time.Duration `json:"latency"`
	Success bool          `json:"success"`
	// Reason is the failure-reason code (Reason* constants); ReasonStr
	// its stable string form ("" on success).
	Reason    uint8  `json:"reason,omitempty"`
	ReasonStr string `json:"reason_str,omitempty"`
	// Violation reports failure OR success over SLO.
	Violation bool `json:"violation,omitempty"`
	// Cause is the provenance attribution (CauseNone unless Violation).
	Cause Cause `json:"cause,omitempty"`
	// Synthesized marks a trace reconstructed at completion time because
	// the admission-side events were not captured (e.g. the model was
	// unregistered, or tracing was enabled mid-flight).
	Synthesized bool `json:"synthesized,omitempty"`
}

// StageDur returns the trace's duration in stage s, and whether the
// stage is defined for this trace (e.g. StageExec is undefined for a
// request cancelled in queue).
func (t *RequestTrace) StageDur(s Stage) (time.Duration, bool) {
	switch s {
	case StageAdmit:
		if t.AdmittedAt > 0 && t.ClientSend > 0 {
			return t.AdmittedAt - t.ClientSend, true
		}
	case StageQueue:
		if t.AdmittedAt > 0 {
			if t.ExecStart > 0 {
				return t.ExecStart - t.AdmittedAt, true
			}
			// Never executed: the whole controller residence is queueing.
			if t.RespondedAt > 0 {
				return t.RespondedAt - t.AdmittedAt, true
			}
		}
	case StageLoad:
		if t.LoadEnd > t.LoadStart {
			return t.LoadEnd - t.LoadStart, true
		}
	case StageExec:
		if t.ExecEnd > 0 && t.ExecStart > 0 {
			return t.ExecEnd - t.ExecStart, true
		}
	case StageDeliver:
		if t.DoneAt > 0 {
			if t.ExecEnd > 0 {
				return t.DoneAt - t.ExecEnd, true
			}
			if t.RespondedAt > 0 {
				return t.DoneAt - t.RespondedAt, true
			}
		}
	}
	return 0, false
}

// attributeCause classifies the trace per the provenance taxonomy.
// Called at finalization, after outcome and timeline are complete.
func (t *RequestTrace) attributeCause() Cause {
	if !t.Violation {
		return CauseNone
	}
	if !t.Success {
		switch t.Reason {
		case ReasonWorkerFailed:
			return CauseWorkerLoss
		case ReasonRejected, ReasonTimeout:
			// The worker refused the predicted window, or the deadline
			// passed with the action in flight — prediction error.
			return CauseMispredict
		default: // cancelled in advance, or unregistered mid-transit
			if t.ColdStart {
				return CauseColdStart
			}
			return CauseQueueing
		}
	}
	// Succeeded but over SLO: find the stage that ate the budget.
	if t.ColdStart {
		return CauseColdStart
	}
	if actual := t.ExecEnd - t.ExecStart; t.PredExec > 0 && t.ExecEnd > 0 {
		slack := t.PredExec / 2
		if slack < time.Millisecond {
			slack = time.Millisecond
		}
		if actual > t.PredExec+slack {
			return CauseMispredict
		}
	}
	return CauseQueueing
}

// ExecSpan is one successful INFER action's on-GPU execution, recorded
// for the Perfetto per-GPU tracks.
type ExecSpan struct {
	ActionID uint64        `json:"action"`
	Model    string        `json:"model"`
	Shard    int           `json:"shard"`
	Worker   int           `json:"worker"`
	GPU      int           `json:"gpu"`
	Batch    int           `json:"batch"`
	Start    time.Duration `json:"start"`
	End      time.Duration `json:"end"`
	Requests []uint64      `json:"requests,omitempty"`
}

// LoadSpan is one completed LOAD action's weight transfer.
type LoadSpan struct {
	Model  string        `json:"model"`
	Shard  int           `json:"shard"`
	Worker int           `json:"worker"`
	GPU    int           `json:"gpu"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	OK     bool          `json:"ok"`
}

// splitmix64 is the sampling hash: a full-period mixer over the request
// ID. Chosen for determinism and statelessness — the decision for a
// given (ID, rate) is identical in every group layout, live run, and
// replay.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
