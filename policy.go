package clockwork

import (
	"clockwork/internal/action"
	"clockwork/internal/core"
	"clockwork/internal/simclock"
)

// VirtualTime is an instant on the simulation's virtual clock, as
// schedulers see it (Controller.Now, action windows).
type VirtualTime = simclock.Time

// MaxVirtualTime is the far-future instant (an unbounded action window).
const MaxVirtualTime = simclock.MaxTime

// Policy names a serving policy in the registry.
type Policy string

// Built-in policies: the paper's system, its LOAD-selection ablation,
// and the two baselines of §6.1. The baselines self-register from their
// package; use Policies for the live list.
const (
	PolicyClockwork Policy = "clockwork"
	PolicyClipper   Policy = "clipper"
	PolicyINFaaS    Policy = "infaas"
)

// Scheduler is the decision-making brain plugged into the controller
// (§5.3): the controller owns networking, state mirroring, timeouts and
// response plumbing; the scheduler decides what runs where and when.
// Custom schedulers implement this interface and register with
// RegisterPolicy; see Controller for the surface they program against.
type Scheduler = core.Scheduler

// Controller is the central controller a Scheduler programs against:
// model/GPU state mirrors, latency estimates, and the SendInfer /
// SendLoad / SendUnload action emitters.
type Controller = core.Controller

// ControllerRequest is a request as the controller (and a Scheduler)
// sees it — distinct from the client-side Request submission struct.
type ControllerRequest = core.Request

// ActionResult is a worker's report on one completed or rejected action.
type ActionResult = action.Result

// GPUMirror is the controller's model of one worker GPU.
type GPUMirror = core.GPUMirror

// ModelInfo is the controller-side registry entry for one model.
type ModelInfo = core.ModelInfo

// ModelID is a registered model instance's dense identifier: the key of
// GPUMirror.Pages, resolved to a ModelInfo by Controller.ModelByID.
type ModelID = core.ModelID

// PolicySpec describes a pluggable serving policy: a scheduler factory
// plus the cluster-level switches the policy requires.
type PolicySpec = core.PolicySpec

// RegisterPolicy adds a named policy so New(Config{Policy: name}) can
// resolve it. Names must be unique (ErrDuplicatePolicy otherwise);
// built-in policies and the baselines register themselves the same way.
func RegisterPolicy(name Policy, spec PolicySpec) error {
	return core.RegisterPolicy(string(name), spec)
}

// ErrDuplicatePolicy: RegisterPolicy was called twice for one name.
var ErrDuplicatePolicy = core.ErrDuplicatePolicy

// Policies returns the registered policy names, sorted.
func Policies() []Policy {
	names := core.Policies()
	out := make([]Policy, len(names))
	for i, n := range names {
		out[i] = Policy(n)
	}
	return out
}

// PolicyDescription returns the registered one-line description.
func PolicyDescription(name Policy) (string, bool) {
	spec, ok := core.LookupPolicy(string(name))
	return spec.Description, ok
}
