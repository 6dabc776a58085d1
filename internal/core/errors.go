package core

import "errors"

// Sentinel errors returned by the cluster/controller API. All are
// wrapped with context (model names, worker IDs, the policy names):
// match with errors.Is.
var (
	// ErrUnknownModel: the request or operation names a model that is
	// not registered.
	ErrUnknownModel = errors.New("unknown model")
	// ErrDuplicateModel: RegisterModel was called twice for one name.
	ErrDuplicateModel = errors.New("model already registered")
	// ErrModelBusy: the model has in-flight actions (a LOAD or INFER),
	// so it cannot be unregistered right now.
	ErrModelBusy = errors.New("model has in-flight actions")
	// ErrUnknownPolicy: no serving policy has that name.
	ErrUnknownPolicy = errors.New("unknown policy")
	// ErrNoSuchWorker: the worker ID is out of range.
	ErrNoSuchWorker = errors.New("no such worker")
	// ErrWorkerDown: the worker was already drained or failed.
	ErrWorkerDown = errors.New("worker is drained or failed")
	// ErrInvalidRequest: the submission spec is malformed (empty model
	// name, non-positive SLO, negative batch cap, …).
	ErrInvalidRequest = errors.New("invalid request")
)
