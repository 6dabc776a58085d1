package action

import (
	"fmt"
	"time"

	"clockwork/internal/simclock"
)

// Type enumerates the worker actions.
type Type uint8

// The three action types of §4.4.
const (
	Load Type = iota
	Unload
	Infer
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Load:
		return "LOAD"
	case Unload:
		return "UNLOAD"
	case Infer:
		return "INFER"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ModelID is a model instance's dense cluster-wide identifier, interned
// from its name at registration and permanent for the name from then on.
// The controller resolves a request's name to it once, at submission;
// every per-request table below that edge — page caches, profiles,
// worker host RAM, metrics — is a slice indexed by it. The zero value
// means "not resolved": real IDs start at 1.
type ModelID int32

// Grow returns table long enough to index by id, extended with zero
// values: ID-indexed tables are sized by the IDs their owner has seen,
// not by the registry.
func Grow[T any](table []T, id ModelID) []T {
	if n := int(id) + 1; n > len(table) {
		table = append(table, make([]T, n-len(table))...)
	}
	return table
}

// Action is one controller→worker command.
type Action struct {
	ID   uint64
	Type Type
	GPU  int // worker-local GPU index
	// Model is the instance name, for traces and String; workers address
	// the model by ModelID.
	Model   string
	ModelID ModelID
	Batch   int // INFER only: batch size

	// RequestIDs are the client requests satisfied by an INFER.
	RequestIDs []uint64

	// Earliest and Latest bound when the action may *begin* executing.
	// An action whose Latest has passed before it can start is rejected
	// and never executed (§4.4).
	Earliest simclock.Time
	Latest   simclock.Time

	// ExpectedDuration is the controller's prediction, echoed back for
	// prediction-error telemetry (Fig 9).
	ExpectedDuration time.Duration
	// ExpectedCompletion is the controller's predicted completion
	// instant, for completion-error telemetry (Fig 9, bottom).
	ExpectedCompletion simclock.Time

	// InputBytes/OutputBytes size the INFER IO transfers.
	InputBytes  int64
	OutputBytes int64
}

// WindowContains reports whether the action may begin at instant t.
func (a *Action) WindowContains(t simclock.Time) bool {
	return t >= a.Earliest && t <= a.Latest
}

// String implements fmt.Stringer.
func (a *Action) String() string {
	switch a.Type {
	case Infer:
		return fmt.Sprintf("INFER#%d{%s b%d gpu%d [%v,%v]}", a.ID, a.Model, a.Batch, a.GPU, a.Earliest, a.Latest)
	default:
		return fmt.Sprintf("%v#%d{%s gpu%d [%v,%v]}", a.Type, a.ID, a.Model, a.GPU, a.Earliest, a.Latest)
	}
}

// Status is the outcome of an action.
type Status uint8

// Action outcomes. Everything except Success is an error code; workers
// never attempt best-effort remediation (§4.2).
const (
	Success Status = iota
	// RejectedLate: the action's latest start time passed before the
	// executor could begin it.
	RejectedLate
	// RejectedNoPages: a LOAD found insufficient free pages.
	RejectedNoPages
	// RejectedNotLoaded: an INFER's model weights were not resident.
	RejectedNotLoaded
	// RejectedAlreadyLoaded: a LOAD for an already-resident model.
	RejectedAlreadyLoaded
	// RejectedNotResident: an UNLOAD for a model without pages.
	RejectedNotResident
	// RejectedBusy: an UNLOAD for a model currently executing.
	RejectedBusy
	// RejectedIO: the IOCache could not stage inputs/outputs.
	RejectedIO
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Success:
		return "success"
	case RejectedLate:
		return "rejected:late"
	case RejectedNoPages:
		return "rejected:no-pages"
	case RejectedNotLoaded:
		return "rejected:not-loaded"
	case RejectedAlreadyLoaded:
		return "rejected:already-loaded"
	case RejectedNotResident:
		return "rejected:not-resident"
	case RejectedBusy:
		return "rejected:busy"
	case RejectedIO:
		return "rejected:io"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// IsSuccess reports whether the action executed.
func (s Status) IsSuccess() bool { return s == Success }

// Result is one worker→controller report (§5.2): whether the action
// succeeded, its timing, and the measured on-device duration.
type Result struct {
	ActionID   uint64
	Type       Type
	Status     Status
	WorkerID   int
	GPU        int
	Model      string
	ModelID    ModelID
	Batch      int
	RequestIDs []uint64

	// Start and End bound the action's execution on the worker
	// (zero for rejected actions).
	Start simclock.Time
	End   simclock.Time

	// Duration is the measured on-device time of the asynchronous work
	// (GPU execution for INFER, PCIe transfer for LOAD).
	Duration time.Duration

	// Echoes of the controller's predictions, for Fig 9 telemetry.
	ExpectedDuration   time.Duration
	ExpectedCompletion simclock.Time
}

// String implements fmt.Stringer.
func (r *Result) String() string {
	return fmt.Sprintf("result{%v#%d %s %v dur=%v}", r.Type, r.ActionID, r.Model, r.Status, r.Duration)
}
