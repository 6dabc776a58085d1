package clockwork

import (
	"time"

	"clockwork/internal/core"
)

// This file is the runtime control plane: live reconfiguration of a
// serving System. The paper's controller already owns every
// performance-relevant choice (§4.5); these entry points let operators
// change the facts the controller plans over — worker membership, the
// model registry — without rebuilding the system, and observe the
// per-model consequences.

// AddWorker adds one worker machine (with the system's standard GPU
// geometry) at runtime and returns its ID. The worker starts with every
// registered model pre-loaded in host RAM (§5.1) and is schedulable
// immediately; the load-priority policy loads hot models onto it as
// demand warrants.
func (s *System) AddWorker() int { return s.cluster.AddWorker() }

// DrainWorker takes worker id out of scheduling: no new actions are
// sent to it, in-flight actions finish and their results are honoured.
// Its resident model replicas stop counting toward demand fulfilment,
// so needed replicas are re-created elsewhere. Draining an already
// drained or failed worker returns ErrWorkerDown.
func (s *System) DrainWorker(id int) error { return s.cluster.DrainWorker(id) }

// FailWorker simulates an abrupt worker loss: scheduling stops as with
// DrainWorker, but in-flight work is lost — its requests fail
// immediately with ReasonWorkerFailed and late results from the worker
// are dropped. This promotes the fault-injection previously buried in
// the test harness to a first-class API.
func (s *System) FailWorker(id int) error { return s.cluster.FailWorker(id) }

// WorkerState reports a worker's lifecycle state.
type WorkerState = core.WorkerState

// Worker lifecycle states.
const (
	WorkerActive   = core.WorkerActive
	WorkerDraining = core.WorkerDraining
	WorkerFailed   = core.WorkerFailed
)

// WorkerStateOf returns the lifecycle state of worker id.
func (s *System) WorkerStateOf(id int) (WorkerState, error) {
	return s.cluster.WorkerStateOf(id)
}

// Workers returns the number of workers ever added; drained and failed
// workers keep their IDs.
func (s *System) Workers() int { return s.cluster.WorkerCount() }

// ActiveWorkers counts workers currently in WorkerActive state — the
// capacity denominator worker autoscaling reasons over. Engine-side
// read (in live mode call it from an injected closure or Live.Do).
func (s *System) ActiveWorkers() int { return s.cluster.ActiveWorkers() }

// ---- closed-loop signals ----

// RecentStats is one control period's slice of the client-observed
// outcomes — what the closed-loop autoscaler evaluates each period.
type RecentStats = core.RecentStats

// DrainRecentStats returns the client-observed outcomes accumulated
// since the previous drain and resets the period accumulators. It is
// the autoscaler's signal tap: exactly one consumer should call it,
// engine-side (under Live.Do while a Live paces the system).
func (s *System) DrainRecentStats() RecentStats {
	return s.cluster.Metrics.DrainRecent()
}

// GroupDemand is one placement group's outstanding demand against its
// enabled GPU capacity.
type GroupDemand = core.GroupDemand

// DemandSnapshot returns every placement group's demand/capacity pair,
// indexed by group. Engine-side read.
func (s *System) DemandSnapshot() []GroupDemand {
	return s.cluster.Ctl.DemandSnapshot()
}

// InjectDisturbance stalls one GPU's execution engine for d — the §4.3
// class of external slowdowns (thermal throttling, maintenance daemons)
// that the controller cannot predict. The system's contract under
// disturbance: affected actions fail fast, the worker gets straight
// back on schedule, and successful responses never violate their SLOs.
func (s *System) InjectDisturbance(workerID, gpuID int, d time.Duration) error {
	return s.cluster.InjectDisturbance(workerID, gpuID, d)
}

// UnregisterModel retires a model instance: queued requests fail with
// ReasonUnregistered, GPU replicas are unloaded, and subsequent
// submissions return ErrUnknownModel. A model with in-flight actions
// returns ErrModelBusy — run the clock until its work drains and retry.
func (s *System) UnregisterModel(name string) error {
	return s.cluster.UnregisterModel(name)
}

// ModelStats is the per-model slice of the system's metrics: outcome
// counters, the failure taxonomy, latency percentiles and mean goodput.
type ModelStats = core.ModelStats

// ModelStats returns per-model counters for a registered model; ok is
// false for names that are neither registered nor ever served.
func (s *System) ModelStats(name string) (ModelStats, bool) {
	return s.cluster.ModelStats(name)
}

// TenantStats aggregates outcomes across all requests labelled with one
// Tenant value.
type TenantStats = core.Outcomes

// TenantStats returns per-tenant counters; ok is false for tenants that
// have not produced any response yet.
func (s *System) TenantStats(tenant string) (TenantStats, bool) {
	return s.cluster.TenantStats(tenant)
}
