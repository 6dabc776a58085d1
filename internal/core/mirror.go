package core

import (
	"fmt"
	"math"
	"time"

	"clockwork/internal/action"
	"clockwork/internal/memory"
	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
)

// GPUMirror is the controller's model of one worker GPU (§5.3 "managing
// worker state"): which models hold pages, which are mid-LOAD and when
// they land, and when each executor will next be free. Actions have
// deterministic latency by design, so this mirror stays accurate without
// per-action acknowledgements.
type GPUMirror struct {
	WorkerID int
	GPU      int

	// group is the placement group the GPU belongs to (group.go);
	// foreign counts the models of other groups resident on it.
	group   int
	foreign int

	// Pages mirrors the worker's PageCache (same deterministic type).
	Pages *memory.PageCache

	// actions holds, by model ID, what is outstanding for the model on
	// this GPU. It is grown to the highest ID the GPU has been sent an
	// action for, not sized by the registry.
	actions []modelActions

	// ExecFreeAt and LoadFreeAt are the predicted instants the INFER and
	// LOAD executors drain their submitted work.
	ExecFreeAt simclock.Time
	LoadFreeAt simclock.Time

	// withWork lists, in no particular order, the models resident (or
	// loading) on this GPU that currently have queued requests — the
	// scheduler's candidate set for the next INFER. Each member's slot
	// in actions holds its position, for O(1) swap-removes.
	withWork []*ModelInfo

	// stratQ is the strategy heap for this GPU: one lazily re-keyed
	// entry per model with work, ordered by required start time (see
	// index.go). Maintained by Controller.reindexModel.
	stratQ stratHeap

	// allocDemand is ℓ_g, the incrementally maintained sum of active
	// models' per-replica demand shares on this GPU (Appendix B).
	allocDemand time.Duration
	// loadCeil and loadDirty belong to the nothing-to-load gate
	// (index.go): loadCeil is at most the lowest ℓ_g level any model in
	// withWork was cleared to, so while ℓ_g ≤ loadCeil none of their
	// p_m ≤ 0 verdicts can have changed on this GPU's account; loadDirty
	// is set while this mirror sits on the controller's dirtyGPUs list
	// waiting for those models to be looked at again.
	loadCeil  time.Duration
	loadDirty bool

	// disabled marks the GPU unschedulable: its worker is draining or
	// failed (control plane). Schedulers must skip disabled mirrors.
	disabled bool

	// wake is the ClockworkScheduler's re-evaluation event for this GPU
	// (one scheduler drives a controller, so one per mirror), created on
	// first use by armWake.
	wake *gpuWake
}

func newGPUMirror(workerID, gpu int, pageCacheBytes int64) *GPUMirror {
	return &GPUMirror{
		WorkerID: workerID,
		GPU:      gpu,
		Pages:    memory.NewPageCache(pageCacheBytes, memory.DefaultPageSize),
		loadCeil: math.MaxInt64, // no model cleared yet: no limit
	}
}

// modelActions is one model's outstanding work on one GPU: loading is
// the predicted instant its LOAD in flight lands (zero: none — a real ETA
// lies a positive transfer time and network allowance after some instant
// ≥ 0), infers the number of submitted-but-unresolved INFER actions, so
// eviction never targets a model that is about to execute. work is the
// model's position in withWork plus one (zero: not in it).
type modelActions struct {
	loading simclock.Time
	infers  int32
	work    int32
}

// addWork puts mi in withWork (idempotent).
func (g *GPUMirror) addWork(mi *ModelInfo) {
	if a := g.outstanding(mi.id); a.work == 0 {
		g.withWork = append(g.withWork, mi)
		a.work = int32(len(g.withWork))
	}
}

// dropWork takes mi out of withWork (idempotent), moving the last member
// into its place.
func (g *GPUMirror) dropWork(mi *ModelInfo) {
	if int(mi.id) >= len(g.actions) || g.actions[mi.id].work == 0 {
		return
	}
	i, last := g.actions[mi.id].work, len(g.withWork)-1
	g.withWork[i-1], g.actions[g.withWork[last].id].work = g.withWork[last], i
	g.withWork[last] = nil
	g.withWork, g.actions[mi.id].work = g.withWork[:last], 0
}

// outstanding returns id's slot for writing, growing the table to it.
func (g *GPUMirror) outstanding(id ModelID) *modelActions {
	g.actions = action.Grow(g.actions, id)
	return &g.actions[id]
}

// peek returns what is outstanding for id (nothing, beyond the table).
func (g *GPUMirror) peek(id ModelID) modelActions {
	if int(id) < len(g.actions) {
		return g.actions[id]
	}
	return modelActions{}
}

// Resident reports whether the controller believes mi's weights are (or
// will momentarily be) on this GPU, and when they become usable (MinTime
// when already usable).
func (g *GPUMirror) Resident(mi *ModelInfo) (readyAt simclock.Time, ok bool) {
	if eta := g.peek(mi.id).loading; eta != 0 {
		return eta, true
	}
	if g.Pages.Has(mi.id) {
		return simclock.MinTime, true
	}
	return 0, false
}

// Disabled reports whether this GPU's worker was drained or failed;
// disabled mirrors must not receive new actions.
func (g *GPUMirror) Disabled() bool { return g.disabled }

// IsLoading reports whether a LOAD for mi is in flight.
func (g *GPUMirror) IsLoading(mi *ModelInfo) bool { return g.peek(mi.id).loading != 0 }

// InFlight returns the number of unresolved INFER actions for mi.
func (g *GPUMirror) InFlight(mi *ModelInfo) int { return int(g.peek(mi.id).infers) }

// ModelsWithWork returns buf[:0] with the models on this GPU that have
// queued requests appended, in no particular order. The result is a
// copy, so a caller may send actions while ranging over it.
func (g *GPUMirror) ModelsWithWork(buf []*ModelInfo) []*ModelInfo {
	return append(buf[:0], g.withWork...)
}

// OutstandingExecWork returns predicted time until the INFER executor
// drains, from instant now.
func (g *GPUMirror) OutstandingExecWork(now simclock.Time) time.Duration {
	if g.ExecFreeAt <= now {
		return 0
	}
	return g.ExecFreeAt.Sub(now)
}

// OutstandingLoadWork returns predicted time until the LOAD executor
// drains, from instant now.
func (g *GPUMirror) OutstandingLoadWork(now simclock.Time) time.Duration {
	if g.LoadFreeAt <= now {
		return 0
	}
	return g.LoadFreeAt.Sub(now)
}

// String implements fmt.Stringer.
func (g *GPUMirror) String() string {
	return fmt.Sprintf("mirror{w%d.g%d %v}", g.WorkerID, g.GPU, g.Pages)
}

// workerHandle couples a worker's mirrors with its transport hook.
type workerHandle struct {
	id   int
	gpus []*GPUMirror
	// draining: no new actions, in-flight work completes normally.
	// failed: no new actions AND late results are dropped.
	draining bool
	failed   bool
	// submit delivers an action to the worker over the simulated
	// network, carrying payloadBytes of data (inference inputs are
	// routed through the controller, §7); installed by the cluster
	// layer.
	submit func(a *action.Action, payloadBytes int64)
}

// ModelInfo is the controller-side registry entry for one model
// instance: its zoo profile, queued requests, and Appendix B demand
// accounting. Schedulers read it through the exported accessors; only
// the controller mutates it.
type ModelInfo struct {
	name string
	// id is the name's dense ID in the controller's model table: what
	// every per-GPU, per-worker and per-profile table is indexed by.
	id  ModelID
	zoo *modelzoo.Model
	// owner is the controller this entry is registered with: PopBatch
	// draws batch slices from its pool, and a queued request's timer
	// (Request.Run) reaches the controller through it.
	owner *Controller
	// group is the placement group the model is loaded in (group.go);
	// outside counts its replicas on GPUs of other groups, placed there
	// while its group was stranded.
	group   int
	outside int

	// queue holds queued requests ordered by (priority desc, arrival):
	// with the default priority 0 everywhere this is plain FIFO
	// (deadline order for same-SLO clients).
	queue []*Request

	// capped counts queued requests carrying a positive MaxBatch, so
	// the batch-cap check is free on the (common) uncapped path.
	capped int

	// demand is Appendix B's d_m: summed batch-1 execution estimates of
	// queued requests.
	demand time.Duration

	// residentOn lists the GPU mirrors that hold (or are loading) this
	// model, in the order their LOADs were issued. A slice, not a set: it
	// has one to a handful of entries and is iterated on every priority
	// evaluation, where a map iterator's set-up cost dominated; every
	// consumer (integer fulfilled sums, per-GPU pushes, ℓ_g shares) is
	// order-independent. Mutated only through addReplica/dropReplica.
	residentOn []*GPUMirror

	// ---- index bookkeeping (see index.go) ----

	// seq is the registration order, used as the deterministic
	// tie-break in every index.
	seq uint64
	// stamp is bumped by Controller.reindexModel on every event that
	// can change this model's strategies; strategy-heap entries carry
	// the stamp they were pushed with and are stale when it differs.
	stamp uint64
	// loadShare and sharedOn record the demand-share contribution this
	// model currently makes to each GPU's allocDemand, so reindexModel
	// can retract it exactly before applying the new share.
	loadShare time.Duration
	sharedOn  []*GPUMirror
	// loadSign says which of the controller's load-candidate sets this
	// model is in — the cold index or the positive set; written only by
	// Controller.settleLoadSign. While it is signNone on an active
	// replicated model, clearedTo[i] is the ℓ level of residentOn[i] up
	// to which p_m ≤ 0 is proven (see Controller.clearLoad).
	loadSign  loadSign
	clearedTo []time.Duration
	// posAt is this model's position in the controller's positive set
	// plus one (zero: not in it); coldNode and deadlineNode are its
	// handles in the cold and deadline indexes.
	posAt        int
	coldNode     *treapNode
	deadlineNode *treapNode
}

// Name returns the model instance name.
func (mi *ModelInfo) Name() string { return mi.name }

// ID returns the instance's dense ID — the key of GPUMirror.Pages.
func (mi *ModelInfo) ID() ModelID { return mi.id }

// Zoo returns the underlying catalogue model.
func (mi *ModelInfo) Zoo() *modelzoo.Model { return mi.zoo }

// QueuedCount returns the number of queued requests.
func (mi *ModelInfo) QueuedCount() int { return len(mi.queue) }

// Demand returns Appendix B's d_m.
func (mi *ModelInfo) Demand() time.Duration { return mi.demand }

// ResidentOn returns the mirrors holding (or loading) this model, in
// LOAD-issue order. The slice is live; callers must not mutate it.
func (mi *ModelInfo) ResidentOn() []*GPUMirror { return mi.residentOn }

// residentOnGPU reports whether g holds (or is loading) this model. On
// an enabled mirror it agrees with g.Resident(mi); it is a scan of a
// handful of pointers the caller usually has in cache already.
func (mi *ModelInfo) residentOnGPU(g *GPUMirror) bool {
	for _, r := range mi.residentOn {
		if r == g {
			return true
		}
	}
	return false
}

// replicaRoom is the capacity the per-replica slices start with: most
// models never hold more replicas, so each slice is allocated once
// rather than at one, two and three entries.
const replicaRoom = 4

// addReplica records g as holding this model (idempotent), and as having
// work for it if it has queued requests.
func (mi *ModelInfo) addReplica(g *GPUMirror) {
	if mi.residentOn == nil {
		mi.residentOn = make([]*GPUMirror, 0, replicaRoom)
	}
	if !mi.residentOnGPU(g) {
		mi.residentOn = append(mi.residentOn, g)
		if g.group != mi.group {
			mi.outside++
			g.foreign++
		}
	}
	if len(mi.queue) > 0 {
		g.addWork(mi)
	}
}

// dropReplica removes g from the replica list, keeping the others in
// order, and reports whether it was there.
func (mi *ModelInfo) dropReplica(g *GPUMirror) bool {
	g.dropWork(mi)
	for i, r := range mi.residentOn {
		if r == g {
			if g.group != mi.group {
				mi.outside--
				g.foreign--
			}
			n := copy(mi.residentOn[i:], mi.residentOn[i+1:])
			mi.residentOn[i+n] = nil
			mi.residentOn = mi.residentOn[:i+n]
			return true
		}
	}
	return false
}

// PeekOldest returns the oldest queued request without removing it, or
// nil when the queue is empty.
func (mi *ModelInfo) PeekOldest() *Request {
	if len(mi.queue) == 0 {
		return nil
	}
	return mi.queue[0]
}

// MinDeadline returns the earliest deadline among queued requests
// (MaxTime when empty).
func (mi *ModelInfo) MinDeadline() simclock.Time {
	if len(mi.queue) == 0 {
		return simclock.MaxTime
	}
	min := mi.queue[0].deadline
	for _, r := range mi.queue[1:] {
		if r.deadline < min {
			min = r.deadline
		}
	}
	return min
}

// MaxDeadline returns the latest deadline among queued requests
// (MinTime when empty).
func (mi *ModelInfo) MaxDeadline() simclock.Time {
	if len(mi.queue) == 0 {
		return simclock.MinTime
	}
	max := mi.queue[0].deadline
	for _, r := range mi.queue[1:] {
		if r.deadline > max {
			max = r.deadline
		}
	}
	return max
}

// MinDeadlineOfOldest returns the earliest deadline among the n oldest
// queued requests — the deadline a batch of size n must meet.
func (mi *ModelInfo) MinDeadlineOfOldest(n int) simclock.Time {
	if n > len(mi.queue) {
		n = len(mi.queue)
	}
	if n == 0 {
		return simclock.MaxTime
	}
	min := mi.queue[0].deadline
	for _, r := range mi.queue[1:n] {
		if r.deadline < min {
			min = r.deadline
		}
	}
	return min
}

// enqueue inserts r into the queue: before any queued request of
// strictly lower priority, after everything of equal or higher priority
// (stable FIFO within a level). With the default priority 0 everywhere
// the scan terminates immediately and this is a plain append.
func (mi *ModelInfo) enqueue(r *Request) {
	if r.MaxBatch > 0 {
		mi.capped++
	}
	i := len(mi.queue)
	for i > 0 && mi.queue[i-1].Priority < r.Priority {
		i--
	}
	if i == len(mi.queue) {
		mi.queue = append(mi.queue, r)
		return
	}
	mi.queue = append(mi.queue, nil)
	copy(mi.queue[i+1:], mi.queue[i:])
	mi.queue[i] = r
}

// CapBatch returns the largest batch size ≤ n that respects the
// MaxBatch caps of the requests that would form it (the oldest
// CapBatch(n) queued requests). With no capped requests queued it
// returns n unchanged at zero cost.
func (mi *ModelInfo) CapBatch(n int) int {
	if mi.capped == 0 {
		return n
	}
	if n > len(mi.queue) {
		n = len(mi.queue)
	}
	for n > 1 {
		min := n
		for _, r := range mi.queue[:n] {
			if r.MaxBatch > 0 && r.MaxBatch < min {
				min = r.MaxBatch
			}
		}
		if min >= n {
			return n
		}
		n = min // a smaller batch has a (possibly smaller) cap; re-check
	}
	return n
}

// PopBatch removes and returns up to n queued requests in queue order.
// Schedulers call this immediately before SendInfer. The returned slice
// is pool-backed: it is reclaimed (with its requests) when the batch's
// action resolves, so callers must not retain it past SendInfer.
func (mi *ModelInfo) PopBatch(n int) []*Request {
	if n > len(mi.queue) {
		n = len(mi.queue)
	}
	var out []*Request
	if mi.owner != nil {
		out = mi.owner.acquireBatch(n)
	} else {
		out = make([]*Request, n) // standalone ModelInfo (tests)
	}
	copy(out, mi.queue[:n])
	for _, r := range out {
		if r.MaxBatch > 0 {
			mi.capped--
		}
	}
	remaining := len(mi.queue) - n
	copy(mi.queue, mi.queue[n:])
	for i := remaining; i < len(mi.queue); i++ {
		mi.queue[i] = nil
	}
	mi.queue = mi.queue[:remaining]
	return out
}

// removeRequest deletes r from the queue (used on cancellation).
func (mi *ModelInfo) removeRequest(r *Request) bool {
	for i, q := range mi.queue {
		if q == r {
			if r.MaxBatch > 0 {
				mi.capped--
			}
			copy(mi.queue[i:], mi.queue[i+1:])
			mi.queue[len(mi.queue)-1] = nil
			mi.queue = mi.queue[:len(mi.queue)-1]
			return true
		}
	}
	return false
}
