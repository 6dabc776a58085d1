package core

import (
	"fmt"
	"sort"
	"time"

	"clockwork/internal/action"
	"clockwork/internal/modelzoo"
	"clockwork/internal/predictor"
	"clockwork/internal/simclock"
	"clockwork/trace"
)

// Config parameterises the controller.
type Config struct {
	// Lookahead is how far into the future the controller keeps each
	// executor scheduled (§5.3: 5ms by default).
	Lookahead time.Duration
	// ProfileWindow is the rolling measurement window per action key
	// (§5.3: the past 10 actions).
	ProfileWindow int
	// DisableAdmissionControl turns off Clockwork's cancel-in-advance
	// behaviour. Baseline schedulers (Clipper/INFaaS style) set this:
	// they treat the SLO as a soft goal and execute requests even after
	// their deadlines have passed.
	DisableAdmissionControl bool
}

// Defaults from the paper.
const (
	DefaultLookahead = 5 * time.Millisecond
	// DefaultLoadHorizon scales GPU capacity when computing Appendix B
	// load priorities.
	DefaultLoadHorizon = 100 * time.Millisecond
	// networkAllowance pads predicted LOAD completion times to cover the
	// controller→worker hop, so an INFER whose window opens at a LOAD's
	// ETA never races the transfer.
	networkAllowance = 500 * time.Microsecond
)

func (c Config) withDefaults() Config {
	if c.Lookahead <= 0 {
		c.Lookahead = DefaultLookahead
	}
	if c.ProfileWindow <= 0 {
		c.ProfileWindow = predictor.DefaultWindow
	}
	return c
}

// Scheduler is the decision-making brain plugged into the controller
// (§5.3). The controller owns networking, state mirroring, timeouts and
// response plumbing; the scheduler decides what runs where and when.
// A cluster takes its scheduler from ClusterConfig.NewScheduler; the
// root package's policy table (policy.go) sets it for each of the four
// serving policies.
//
// Retention rule: *Request objects recycle through a free list the
// moment they reach a final outcome, so a scheduler must not retain a
// *Request beyond the callback that delivered it (nor beyond the
// queues the controller itself maintains). A scheduler that needs
// request identity across callbacks must capture (r, r.Gen()) pairs and
// revalidate with CancelRequestGen-style generation checks, or copy
// the plain fields it needs — holding the bare pointer observes the
// slot's next occupant.
type Scheduler interface {
	// Attach gives the scheduler its controller before any events flow.
	Attach(c *Controller)
	// OnRequest fires after the controller has enqueued a new request.
	OnRequest(r *Request)
	// OnResult fires after the controller has updated its mirrors with
	// a worker result.
	OnResult(res action.Result)
}

// Stats counts what only the controller sees: the requests it has
// received, answered or not, and the actions it has sent. Each outcome
// is counted once, where the client observes it (Metrics.Total).
type Stats struct {
	Requests uint64 // total received, in-flight requests included

	ActionsInfer  uint64
	ActionsLoad   uint64
	ActionsUnload uint64
	LoadFailures  uint64 // LOAD actions rejected by workers
}

// Controller is Clockwork's centralized controller.
type Controller struct {
	eng  *simclock.Engine
	cfg  Config
	schd Scheduler

	// workers holds the workers in the order they were added;
	// workerByID addresses them by ID.
	workers    []*workerHandle
	workerByID []*workerHandle
	gpus       []*GPUMirror
	// groups are the placement groups (group.go); every GPU and every
	// model belongs to one. stranded counts the groups with no enabled
	// GPU.
	groups   []placementGroup
	stranded int

	// The load candidates (index.go): coldIdx orders the active models
	// with positive demand and no replica anywhere by demand, posSet
	// holds those with replicas whose exact load priority was positive
	// when last settled; dirtyGPUs lists the mirrors whose ℓ_g has since
	// moved past the level their withWork models were cleared to, so
	// that those models are due another look. reindexModel is their
	// only writer.
	coldIdx   modelTreap
	posSet    []*ModelInfo
	dirtyGPUs []*GPUMirror

	// deadlineIdx orders active models by earliest queued deadline,
	// maintained only once a scheduler opts in via enableDeadlineIndex.
	deadlineIdx modelTreap
	// tab interns model names to dense IDs and holds each name's live
	// registration (models.go), shared with the cluster layer.
	tab *modelTable
	// modelList holds the registered models in registration order — the
	// deterministic iteration order of the control plane.
	modelList []*ModelInfo
	nextSeq   uint64

	// deadlineIdxOn says whether deadlineIdx is kept (index.go), which
	// only a scheduler that opts in pays for.
	deadlineIdxOn bool

	// priorityEvals counts exact loadPriority evaluations, for the work
	// ratchet in the tests.
	priorityEvals uint64

	// testOnInfer, when non-nil, observes every dispatched INFER with
	// the requests it carries; tests install it to audit scheduler
	// invariants at the moment of decision.
	testOnInfer func(a *action.Action, reqs []*Request)

	profile *predictor.Profile

	nextRequestID uint64
	nextActionID  uint64

	pendingInfers map[uint64]pendingInfer

	// Hot-path free lists (engine-confined; see ARCHITECTURE.md,
	// "Hot-path memory discipline"). Requests and INFER actions recycle
	// once no engine-side stage references them; client handles survive
	// recycling through the request generation guard.
	freeReqs    []*Request
	freeActs    []*action.Action
	freeBatches [][]*Request

	// Fig 9 telemetry: duration and completion-time prediction errors.
	InferDuration   *predictor.ErrorTracker
	LoadDuration    *predictor.ErrorTracker
	InferCompletion *predictor.ErrorTracker
	LoadCompletion  *predictor.ErrorTracker

	// flight is the attached flight recorder (nil = none; every hook is
	// nil-safe). Set by the cluster layer before any engine runs. Hooks
	// are pure observers: they only append to recorder state, never
	// schedule events or mint IDs, so an attached recorder leaves the
	// schedule bit-identical.
	flight *trace.Recorder

	stats Stats
}

// pendingInfer couples an in-flight INFER's requests with the mirror it
// was dispatched to, so FailWorker can find (and fail) exactly the work
// lost with a worker. The action rides along so a completed INFER can
// recycle its node (and ID-slice backing); an action lost with a failed
// worker is NOT recycled — the dead worker's queues may still hold it.
type pendingInfer struct {
	g    *GPUMirror
	reqs []*Request
	a    *action.Action
}

// ---- hot-path free lists ----

func (c *Controller) acquireRequest() *Request {
	if n := len(c.freeReqs); n > 0 {
		r := c.freeReqs[n-1]
		c.freeReqs = c.freeReqs[:n-1]
		return r
	}
	return new(Request)
}

// releaseRequest recycles a terminally-answered request. Callers must
// guarantee no engine-side stage still references it (not queued, not
// in pendingInfers, timer stopped). The generation bump invalidates any
// stale client handle.
func (c *Controller) releaseRequest(r *Request) {
	gen := r.gen + 1
	*r = Request{gen: gen}
	c.freeReqs = append(c.freeReqs, r)
}

func (c *Controller) acquireAction() *action.Action {
	if n := len(c.freeActs); n > 0 {
		a := c.freeActs[n-1]
		c.freeActs = c.freeActs[:n-1]
		return a
	}
	return new(action.Action)
}

// releaseAction recycles an INFER action whose result has been fully
// ingested, keeping the RequestIDs backing for the next dispatch. The
// flight recorder copies ID slices it retains (trace.Recorder
// .ExecDone), so reusing the backing cannot corrupt retained spans.
func (c *Controller) releaseAction(a *action.Action) {
	ids := a.RequestIDs[:0]
	*a = action.Action{RequestIDs: ids}
	c.freeActs = append(c.freeActs, a)
}

// acquireBatch returns a request slice of length n for PopBatch; the
// backing recycles through handleInferResult/FailWorker.
func (c *Controller) acquireBatch(n int) []*Request {
	if m := len(c.freeBatches); m > 0 {
		b := c.freeBatches[m-1]
		c.freeBatches = c.freeBatches[:m-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]*Request, n)
}

func (c *Controller) releaseBatch(b []*Request) {
	for i := range b {
		b[i] = nil
	}
	c.freeBatches = append(c.freeBatches, b[:0])
}

// NewController returns a controller driving the given scheduler.
func NewController(eng *simclock.Engine, cfg Config, schd Scheduler) *Controller {
	c := &Controller{
		eng:             eng,
		cfg:             cfg.withDefaults(),
		schd:            schd,
		tab:             newModelTable(),
		pendingInfers:   make(map[uint64]pendingInfer),
		InferDuration:   predictor.NewErrorTracker(),
		LoadDuration:    predictor.NewErrorTracker(),
		InferCompletion: predictor.NewErrorTracker(),
		LoadCompletion:  predictor.NewErrorTracker(),
	}
	c.setGroups(1)
	c.profile = predictor.NewProfile(c.cfg.ProfileWindow, modelzoo.BatchSizes)
	schd.Attach(c)
	return c
}

// Engine exposes the event engine (schedulers arm wake timers with it).
func (c *Controller) Engine() *simclock.Engine { return c.eng }

// Now returns the current instant.
func (c *Controller) Now() simclock.Time { return c.eng.Now() }

// Stats returns a copy of the arrival and action counters.
func (c *Controller) Stats() Stats { return c.stats }

// GPUs returns all GPU mirrors across workers, including those of
// drained or failed workers (check Disabled before scheduling onto one).
func (c *Controller) GPUs() []*GPUMirror { return c.gpus }

// AddWorker registers a worker's mirrors and its transport hook. The
// cluster layer calls this during setup — and at runtime for control-
// plane scale-out — exchanging page-cache geometry like the startup
// handshake of §5.3 (pages are the paper's memory.DefaultPageSize).
// Worker IDs need not be contiguous, but must be unique and ascending;
// the worker's GPUs join placement group (id mod groups).
func (c *Controller) AddWorker(id, gpuCount int, pageCacheBytes int64,
	submit func(a *action.Action, payloadBytes int64)) {
	if n := len(c.workers); n > 0 && c.workers[n-1].id >= id {
		panic(fmt.Sprintf("core: workers must be added in ascending ID order (got %d after %d)", id, c.workers[n-1].id))
	}
	wh := &workerHandle{id: id, submit: submit}
	group := id % len(c.groups)
	grp := &c.groups[group]
	if grp.enabled == 0 && gpuCount > 0 {
		c.stranded--
	}
	for i := 0; i < gpuCount; i++ {
		m := newGPUMirror(id, i, pageCacheBytes)
		m.group = group
		wh.gpus = append(wh.gpus, m)
		c.gpus = append(c.gpus, m)
		grp.gpus = append(grp.gpus, m)
		grp.enabled++
	}
	c.workers = append(c.workers, wh)
	// IDs ascend, so id lies past every slot the table has.
	c.workerByID = append(c.workerByID, make([]*workerHandle, id-len(c.workerByID))...)
	c.workerByID = append(c.workerByID, wh)
}

// DrainWorker takes a worker out of scheduling: no new actions are sent
// to it, in-flight actions run to completion and their results are
// still honoured. The worker's resident replicas stop counting toward
// Appendix B demand fulfilment, so the load-priority policy re-creates
// needed replicas elsewhere.
func (c *Controller) DrainWorker(id int) error {
	wh, err := c.worker(id)
	if err != nil {
		return err
	}
	if wh.draining || wh.failed {
		return fmt.Errorf("%w: worker %d", ErrWorkerDown, id)
	}
	wh.draining = true
	c.detachWorker(wh)
	return nil
}

// FailWorker simulates an abrupt worker loss (the paper's C3 class of
// external factors, promoted from the fault-injection test harness):
// scheduling stops as with DrainWorker, but in-flight work is lost —
// its requests fail immediately with ReasonWorkerFailed and any late
// results from the worker are dropped.
func (c *Controller) FailWorker(id int) error {
	wh, err := c.worker(id)
	if err != nil {
		return err
	}
	if wh.failed {
		return fmt.Errorf("%w: worker %d", ErrWorkerDown, id)
	}
	wh.failed = true
	c.detachWorker(wh)

	// Fail the in-flight INFERs dispatched to this worker, in action-ID
	// order (map iteration order must not leak into response order).
	var lost []uint64
	for aid, p := range c.pendingInfers {
		if p.g.WorkerID == id {
			lost = append(lost, aid)
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	for _, aid := range lost {
		p := c.pendingInfers[aid]
		delete(c.pendingInfers, aid)
		for _, r := range p.reqs {
			if r.state != stateInFlight {
				continue
			}
			r.state = stateDone
			c.respond(r, Result{
				RequestID: r.ID, Model: r.Model, id: r.mi.id, Tenant: r.Tenant, Success: false,
				Reason: ReasonWorkerFailed, ColdStart: r.coldStart,
			})
		}
		// The dead worker's late results are dropped at HandleResult's
		// door, so these requests are final; the action node itself may
		// still sit in the dead worker's queues and is left to the GC.
		c.recycleBatch(p.reqs)
	}
	for _, g := range wh.gpus {
		clear(g.actions)
	}
	return nil
}

// worker validates a worker ID.
func (c *Controller) worker(id int) (*workerHandle, error) {
	if id < 0 || id >= len(c.workerByID) || c.workerByID[id] == nil {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrNoSuchWorker, id, len(c.workers))
	}
	return c.workerByID[id], nil
}

// mirror returns the mirror of (workerID, gpu); both must exist.
func (c *Controller) mirror(workerID, gpu int) *GPUMirror {
	return c.workerByID[workerID].gpus[gpu]
}

// detachWorker disables a worker's mirrors and retracts its replicas
// from the controller's residency and demand accounting. Models are
// visited in registration order so every index mutation is replayed
// identically across runs.
func (c *Controller) detachWorker(wh *workerHandle) {
	for _, g := range wh.gpus {
		if grp := &c.groups[g.group]; !g.disabled { // a drained worker may fail later
			if grp.enabled--; grp.enabled == 0 {
				c.stranded++
			}
		}
		g.disabled = true
		for _, mi := range c.modelList {
			if mi.dropReplica(g) {
				c.reindexModel(mi)
			}
		}
		g.stratQ = g.stratQ[:0]
	}
}

// WorkerState reports a worker's control-plane state.
type WorkerState uint8

// Worker lifecycle states.
const (
	WorkerActive WorkerState = iota
	WorkerDraining
	WorkerFailed
)

// String implements fmt.Stringer.
func (s WorkerState) String() string {
	switch s {
	case WorkerActive:
		return "active"
	case WorkerDraining:
		return "draining"
	case WorkerFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// WorkerStateOf returns the lifecycle state of worker id.
func (c *Controller) WorkerStateOf(id int) (WorkerState, error) {
	wh, err := c.worker(id)
	if err != nil {
		return WorkerActive, err
	}
	switch {
	case wh.failed:
		return WorkerFailed, nil
	case wh.draining:
		return WorkerDraining, nil
	default:
		return WorkerActive, nil
	}
}

// RegisterModel announces a model instance, seeding its action profiles
// from offline profiling data (§5.1), in its placement group. Duplicate
// names are an error.
//
// The name keeps the ID (and the profile block) of any earlier
// registration: measurements learned for the same catalogue
// model carry over, while seeds that differ — the name now stands for
// another model — discard them (predictor.Estimator.Seed).
func (c *Controller) RegisterModel(name string, zoo *modelzoo.Model) error {
	if zoo == nil {
		return fmt.Errorf("%w: nil model for %q", ErrInvalidRequest, name)
	}
	if name == "" {
		return fmt.Errorf("%w: empty model name", ErrInvalidRequest)
	}
	id := c.tab.intern(name)
	if c.tab.live[id] != nil {
		return fmt.Errorf("%w: %q", ErrDuplicateModel, name)
	}
	mi := &ModelInfo{name: name, id: id, zoo: zoo, owner: c, seq: c.nextSeq, group: groupOf(name, len(c.groups))}
	c.nextSeq++
	c.tab.live[id] = mi
	c.modelList = append(c.modelList, mi)
	for _, b := range modelzoo.BatchSizes {
		c.profile.Seed(id, predictor.Key{Op: predictor.Exec, Batch: b}, zoo.ExecLatency(b))
	}
	c.profile.Seed(id, predictor.Key{Op: predictor.Load}, zoo.Transfer())
	return nil
}

// unlist drops mi from the registry; its name keeps its ID.
func (c *Controller) unlist(mi *ModelInfo) {
	c.tab.live[mi.id] = nil
	for i, m := range c.modelList {
		if m == mi {
			c.modelList = append(c.modelList[:i], c.modelList[i+1:]...)
			break
		}
	}
}

// modelBusy reports whether mi has an in-flight action whose result
// will still be honoured — a LOAD or INFER on a non-failed worker
// (draining workers keep their promises; failed workers' in-flight
// requests were already answered and their results are dropped). It
// walks every GPU: a policy other than the Clockwork scheduler may place
// a model outside its group, and a stranded group's models are loaded
// outside it (group.go).
func (c *Controller) modelBusy(mi *ModelInfo) bool {
	for _, g := range c.gpus {
		if c.workerByID[g.WorkerID].failed {
			continue
		}
		if g.IsLoading(mi) || g.InFlight(mi) > 0 {
			return true
		}
	}
	return false
}

// UnregisterModel removes a model instance: its queued requests fail
// with ReasonUnregistered, its replicas are unloaded, and subsequent
// submissions return ErrUnknownModel. A model with in-flight actions
// (a LOAD or INFER somewhere in the cluster) is ErrModelBusy — run the
// engine until its work drains, then retry.
func (c *Controller) UnregisterModel(name string) error {
	mi, ok := c.Model(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if c.modelBusy(mi) {
		return fmt.Errorf("%w: %q", ErrModelBusy, name)
	}

	// Fail queued requests, oldest first.
	queued := append([]*Request(nil), mi.queue...)
	for _, r := range queued {
		if r.state != stateQueued {
			continue
		}
		mi.removeRequest(r)
		r.state = stateDone
		c.respond(r, Result{
			RequestID: r.ID, Model: r.Model, id: mi.id, Tenant: r.Tenant, Success: false,
			Reason: ReasonUnregistered, ColdStart: r.coldStart,
		})
		c.releaseRequest(r)
	}
	mi.demand = 0
	if len(queued) > 0 {
		c.noteQueueMaybeEmpty(mi)
	}

	// Evict every replica, wherever it is (deterministic GPU order;
	// disabled mirrors were already detached and their workers keep
	// stale weights).
	for _, g := range c.gpus {
		if !g.disabled && mi.residentOnGPU(g) {
			c.SendUnload(g, mi)
		}
	}

	c.reindexModel(mi) // removes mi from the ordered indexes
	c.unlist(mi)
	return nil
}

// Model returns the registry entry for name. It resolves the name; code
// that already holds a request, an action result or an ID reads the
// entry off that instead (Request.ModelInfo, ModelByID).
func (c *Controller) Model(name string) (*ModelInfo, bool) {
	mi := c.tab.lookup(name)
	return mi, mi != nil
}

// ModelByID returns the registry entry for id — how a scheduler walking
// GPUMirror.Pages gets from a cache key to its model.
func (c *Controller) ModelByID(id ModelID) (*ModelInfo, bool) {
	if id <= 0 || int(id) >= len(c.tab.live) {
		return nil, false
	}
	mi := c.tab.live[id]
	return mi, mi != nil
}

// ModelCount returns the number of registered instances.
func (c *Controller) ModelCount() int { return len(c.modelList) }

// EstimateExec predicts execution latency of (model, batch).
func (c *Controller) EstimateExec(mi *ModelInfo, batch int) time.Duration {
	return c.profile.Estimate(mi.id, predictor.Key{Op: predictor.Exec, Batch: batch})
}

// EstimateLoad predicts the weight-transfer duration of model.
func (c *Controller) EstimateLoad(mi *ModelInfo) time.Duration {
	return c.profile.Estimate(mi.id, predictor.Key{Op: predictor.Load})
}

// Submit accepts one client request; rsp (may be nil) receives its
// terminal outcome. The cluster layer invokes this when the request
// arrives at the controller over the network. The controller does not
// trust its caller to have validated the model: an unregistered model
// (e.g. unregistered while the request was in transit) fails the
// request with ReasonUnregistered rather than panicking, and returns
// nil. The returned request may be recycled as soon as its terminal
// response fires; callers retaining it must capture Gen() before the
// response can arrive and check it before acting (see Handle in the
// cluster layer).
func (c *Controller) Submit(spec SubmitSpec, rsp Responder) *Request {
	now := c.eng.Now()
	// The cluster's submission edge resolved the name already; the ID it
	// left in the spec is read against the table as it is now, so a model
	// unregistered or re-registered while the request was on the wire is seen as exactly that.
	id := spec.id
	if id == 0 {
		id = c.tab.resolve(spec.Model)
	}
	mi := c.tab.live[id]
	if mi == nil {
		c.nextRequestID++
		c.stats.Requests++
		resp := Result{
			RequestID: c.nextRequestID, Model: spec.Model, id: id, Tenant: spec.Tenant,
			Success: false, Reason: ReasonUnregistered,
		}
		if rsp != nil {
			rsp.Respond(resp)
		}
		return nil
	}
	c.nextRequestID++
	// The response margin covers the result's return path (output
	// transfer and network): min(1ms, SLO/20).
	margin := time.Millisecond
	if m := spec.SLO / 20; m < margin {
		margin = m
	}
	r := c.acquireRequest()
	gen := r.gen
	*r = Request{
		ID:          c.nextRequestID,
		Model:       spec.Model,
		SLO:         spec.SLO,
		Priority:    spec.Priority,
		Tenant:      spec.Tenant,
		MaxBatch:    spec.MaxBatchSize,
		Arrival:     now,
		InputBytes:  mi.zoo.InputBytes(),
		OutputBytes: mi.zoo.OutputBytes(),
		responder:   rsp,
		mi:          mi,
		state:       stateQueued,
		deadline:    now.Add(spec.SLO - margin),
		execEst:     c.EstimateExec(mi, 1),
		gen:         gen,
	}
	r.coldStart = len(mi.residentOn) == 0
	c.stats.Requests++

	mi.enqueue(r)
	mi.demand += r.execEst
	if len(mi.queue) == 1 {
		c.activate(mi)
	}
	c.reindexModel(mi)
	c.flight.Admitted(r.ID, r.Model, r.Tenant, mi.group, r.SLO, r.Priority, r.coldStart, len(mi.queue), now.Duration())

	// A client cancel that raced the request's network transit wins
	// deterministically: the request is answered before the scheduler
	// could dispatch it — and recycled here, so the caller gets nil
	// rather than a pointer whose generation has already moved on.
	if spec.preCancelled {
		c.cancelRequest(mi, r)
		if r.state == stateDone {
			c.releaseRequest(r)
		}
		return nil
	}

	// Cancel in advance at the last instant a batch-1 warm execution
	// could still begin (§4.1: "cancels the request before performing
	// any fruitless work"). Baselines execute late requests instead.
	if !c.cfg.DisableAdmissionControl {
		lastChance := r.deadline.Add(-r.execEst)
		r.cancelTmr = c.eng.AtRun(lastChance, r)
	}

	c.schd.OnRequest(r)
	return r
}

// CancelRequest cancels a still-queued request on the client's behalf.
// It reports whether the request was cancelled (false when it already
// completed or is in flight — in-flight work cannot be clawed back,
// §4.2).
func (c *Controller) CancelRequest(r *Request) bool {
	if r == nil || r.state != stateQueued {
		return false
	}
	c.cancelRequest(r.mi, r)
	done := r.state == stateDone
	if done {
		c.releaseRequest(r)
	}
	return done
}

// CancelRequestGen is CancelRequest for callers holding a possibly-
// recycled reference: gen must match the generation captured when the
// request was obtained (Request.Gen). A stale handle's generation can
// never match a recycled node — releaseRequest bumps it — so the cancel
// deterministically no-ops instead of hitting the node's new occupant.
func (c *Controller) CancelRequestGen(r *Request, gen uint64) bool {
	if r == nil || r.gen != gen {
		return false
	}
	return c.CancelRequest(r)
}

// cancelRequest fails a still-queued request whose SLO is unmeetable.
func (c *Controller) cancelRequest(mi *ModelInfo, r *Request) {
	if r.state != stateQueued {
		return
	}
	if !mi.removeRequest(r) {
		return
	}
	mi.demand -= r.execEst
	c.noteQueueMaybeEmpty(mi)
	c.reindexModel(mi)
	r.state = stateDone
	c.respond(r, Result{
		RequestID: r.ID, Model: r.Model, id: mi.id, Tenant: r.Tenant, Success: false,
		Reason: ReasonCancelled, ColdStart: r.coldStart,
	})
}

// timeoutRequest fails an in-flight request whose deadline passed before
// its result arrived (the action was rejected or its result is late).
func (c *Controller) timeoutRequest(r *Request) {
	if r.state != stateInFlight {
		return
	}
	r.state = stateDone
	c.respond(r, Result{
		RequestID: r.ID, Model: r.Model, id: r.mi.id, Tenant: r.Tenant, Success: false,
		Reason: ReasonTimeout, ColdStart: r.coldStart,
	})
}

// activate counts mi, whose queue has just gone from empty to not, as
// active in its group, and gives the GPUs holding it work for it.
func (c *Controller) activate(mi *ModelInfo) {
	grp := &c.groups[mi.group]
	if grp.active == 0 {
		grp.wakesLapsed = true
	}
	grp.active++
	for _, g := range mi.residentOn {
		g.addWork(mi)
	}
}

// noteQueueMaybeEmpty is activate's inverse, called after requests left
// mi's queue, which held some: if none are left mi is no longer active.
func (c *Controller) noteQueueMaybeEmpty(mi *ModelInfo) {
	if len(mi.queue) == 0 {
		c.groups[mi.group].active--
		for _, g := range mi.residentOn {
			g.dropWork(mi)
		}
	}
}

func (c *Controller) respond(r *Request, resp Result) {
	r.cancelTmr.Stop()
	r.cancelTmr = simclock.Timer{}
	c.flight.Responded(r.ID, c.eng.Now().Duration())
	if r.responder != nil {
		r.responder.Respond(resp)
	}
}

// ---- scheduler action emission ----

// SendInfer dispatches a batch of queued requests as one INFER action on
// mirror g. The requests must have been popped from the model's queue by
// the scheduler (PopBatch); the controller handles demand bookkeeping,
// window math, mirror updates, and transport.
func (c *Controller) SendInfer(g *GPUMirror, mi *ModelInfo, batch int, reqs []*Request,
	earliest, latest simclock.Time) *action.Action {
	if len(reqs) == 0 {
		panic("core: SendInfer with no requests")
	}
	est := c.EstimateExec(mi, batch)
	if est <= 0 {
		panic("core: zero exec estimate for " + mi.name)
	}
	var inputs, outputs int64
	for _, r := range reqs {
		r.state = stateInFlight
		mi.demand -= r.execEst
		inputs += r.InputBytes
		outputs += r.OutputBytes
		// Re-arm the request's timer at its deadline: if the action is
		// rejected by the worker (a timing misprediction), the client
		// learns of the failure AT the deadline, never after — the
		// paper's failed requests "timed out at 100ms".
		r.cancelTmr.Stop()
		if !c.cfg.DisableAdmissionControl {
			r.cancelTmr = c.eng.AtRun(r.deadline, r)
		}
	}
	if mi.demand < 0 {
		mi.demand = 0
	}
	c.noteQueueMaybeEmpty(mi)

	c.nextActionID++
	startAt := simclock.Max(earliest, c.eng.Now())
	completion := startAt.Add(est)
	a := c.acquireAction()
	ids := a.RequestIDs[:0]
	for _, r := range reqs {
		ids = append(ids, r.ID)
	}
	*a = action.Action{
		ID:                 c.nextActionID,
		Type:               action.Infer,
		GPU:                g.GPU,
		Model:              mi.name,
		ModelID:            mi.id,
		Batch:              batch,
		RequestIDs:         ids,
		Earliest:           earliest,
		Latest:             latest,
		ExpectedDuration:   est,
		ExpectedCompletion: completion,
		InputBytes:         inputs,
		OutputBytes:        outputs,
	}
	g.ExecFreeAt = completion
	g.outstanding(mi.id).infers++
	g.Pages.Touch(mi.id)
	c.pendingInfers[a.ID] = pendingInfer{g: g, reqs: reqs, a: a}
	c.stats.ActionsInfer++
	c.reindexModel(mi)
	c.flight.Scheduled(a.RequestIDs, a.ID, g.WorkerID, g.GPU, batch,
		startAt.Duration(), est, c.eng.Now().Duration())
	if c.testOnInfer != nil {
		c.testOnInfer(a, reqs)
	}
	c.workerByID[g.WorkerID].submit(a, inputs)
	return a
}

// SendLoad dispatches a LOAD for mi on mirror g, updating the mirror's
// page and loading state. The scheduler must have ensured enough free
// pages (via SendUnload).
func (c *Controller) SendLoad(g *GPUMirror, mi *ModelInfo, earliest, latest simclock.Time) *action.Action {
	pages := mi.zoo.Pages(g.Pages.PageSize())
	if err := g.Pages.Alloc(mi.id, pages); err != nil {
		panic(fmt.Sprintf("core: SendLoad without free pages: %v", err))
	}
	est := c.EstimateLoad(mi)
	if est <= 0 {
		panic("core: zero load estimate for " + mi.name)
	}
	c.nextActionID++
	// The executor frees at transferEnd; the weights are *usable* for
	// INFER window math a network-allowance later, so windows opened at
	// the ETA never race the transfer's completion.
	transferEnd := simclock.Max(earliest, c.eng.Now()).Add(est)
	eta := transferEnd.Add(networkAllowance)
	a := &action.Action{
		ID:                 c.nextActionID,
		Type:               action.Load,
		GPU:                g.GPU,
		Model:              mi.name,
		ModelID:            mi.id,
		Earliest:           earliest,
		Latest:             latest,
		ExpectedDuration:   est,
		ExpectedCompletion: transferEnd,
	}
	g.outstanding(mi.id).loading = eta
	g.LoadFreeAt = transferEnd
	mi.addReplica(g)
	c.stats.ActionsLoad++
	c.reindexModel(mi)
	c.workerByID[g.WorkerID].submit(a, 0)
	return a
}

// SendUnload dispatches an UNLOAD for mi on mirror g and updates the
// mirror immediately (UNLOAD always succeeds on the worker, §5.2).
func (c *Controller) SendUnload(g *GPUMirror, mi *ModelInfo) *action.Action {
	if err := g.Pages.Free(mi.id); err != nil {
		panic(fmt.Sprintf("core: SendUnload: %v", err))
	}
	g.outstanding(mi.id).loading = 0
	mi.dropReplica(g)
	c.nextActionID++
	a := &action.Action{
		ID:       c.nextActionID,
		Type:     action.Unload,
		GPU:      g.GPU,
		Model:    mi.name,
		ModelID:  mi.id,
		Earliest: c.eng.Now(),
		Latest:   simclock.MaxTime,
	}
	c.stats.ActionsUnload++
	c.reindexModel(mi)
	c.workerByID[g.WorkerID].submit(a, 0)
	return a
}

// HandleResult ingests one worker result. The cluster layer invokes this
// when the result arrives at the controller over the network. Results
// from failed workers are dropped — their requests were already failed
// by FailWorker.
func (c *Controller) HandleResult(res action.Result) {
	if c.workerByID[res.WorkerID].failed {
		return
	}
	g := c.mirror(res.WorkerID, res.GPU)
	switch res.Type {
	case action.Load:
		c.handleLoadResult(g, res)
	case action.Infer:
		// The action node recycles only after the scheduler's OnResult:
		// res.RequestIDs aliases its backing, and a scheduling pass run
		// from OnResult may dispatch a fresh INFER into that backing.
		a := c.handleInferResult(g, res)
		c.schd.OnResult(res)
		if a != nil {
			c.releaseAction(a)
		}
		return
	case action.Unload:
		// Mirror already updated at send time; a rejection here means
		// the mirror diverged (counted, should not happen).
		if !res.Status.IsSuccess() {
			c.stats.LoadFailures++
		}
	}
	c.schd.OnResult(res)
}

func (c *Controller) handleLoadResult(g *GPUMirror, res action.Result) {
	g.outstanding(res.ModelID).loading = 0
	mi, ok := c.ModelByID(res.ModelID)
	if !ok {
		// The model was unregistered while its LOAD was in flight (the
		// control plane refuses that — defensive for future callers).
		return
	}
	if res.Status.IsSuccess() {
		c.profile.Observe(mi.id, predictor.Key{Op: predictor.Load}, res.Duration)
		c.LoadDuration.Record(res.ExpectedDuration, res.Duration)
		c.LoadCompletion.Record(absTimeError(res.ExpectedCompletion, res.End))
		c.flight.LoadDone(res.Model, mi.group, res.WorkerID, res.GPU, res.Start.Duration(), res.End.Duration(), true)
		// The model's readiness instant just dropped from the LOAD's
		// padded ETA to "now"; re-key its strategies.
		c.reindexModel(mi)
		return
	}
	// Rejected LOAD: roll the mirror back.
	c.stats.LoadFailures++
	c.flight.LoadDone(res.Model, mi.group, res.WorkerID, res.GPU, res.Start.Duration(), res.End.Duration(), false)
	if g.Pages.Free(mi.id) == nil { // errors only when already gone
		mi.dropReplica(g)
	}
	c.reindexModel(mi)
}

// handleInferResult answers the action's requests and returns the
// action node for recycling (nil when it must be left to the GC).
func (c *Controller) handleInferResult(g *GPUMirror, res action.Result) *action.Action {
	p := c.pendingInfers[res.ActionID]
	reqs := p.reqs
	delete(c.pendingInfers, res.ActionID)
	if out := g.outstanding(res.ModelID); out.infers > 0 {
		out.infers--
	}
	mi, ok := c.ModelByID(res.ModelID)
	if !ok {
		return p.a // unregistered mid-flight; requests were already answered
	}
	if res.Status.IsSuccess() {
		c.profile.Observe(mi.id, predictor.Key{Op: predictor.Exec, Batch: res.Batch}, res.Duration)
		c.InferDuration.Record(res.ExpectedDuration, res.Duration)
		c.InferCompletion.Record(absTimeError(res.ExpectedCompletion, res.End))
		c.flight.ExecDone(res.RequestIDs, res.ActionID, res.Model, mi.group, res.WorkerID, res.GPU,
			res.Batch, res.Start.Duration(), res.End.Duration())
		// The observation may have moved this model's execution
		// estimates, which re-keys its strategies everywhere.
		c.reindexModel(mi)
		for _, r := range reqs {
			if r.state != stateInFlight {
				continue // already timed out at its deadline
			}
			r.state = stateDone
			c.respond(r, Result{
				RequestID: r.ID, Model: r.Model, id: mi.id, Tenant: r.Tenant, Success: true,
				Batch: res.Batch, ColdStart: r.coldStart,
			})
		}
		c.recycleBatch(reqs)
		return p.a
	}
	// The worker cancelled the action; fail its requests (§4.2: no
	// best-effort remediation). Requests whose deadline already passed
	// were answered by their timeout timer.
	for _, r := range reqs {
		if r.state != stateInFlight {
			continue
		}
		r.state = stateDone
		c.respond(r, Result{
			RequestID: r.ID, Model: r.Model, id: mi.id, Tenant: r.Tenant, Success: false,
			Reason: ReasonRejected, ColdStart: r.coldStart,
		})
	}
	// Deliberately do NOT rewind g.ExecFreeAt for the phantom work: the
	// executor dequeues by earliest timestamp, so pulling the horizon
	// back under already-committed actions would let the scheduler slot
	// new work ahead of them and push them past their own windows — a
	// self-sustaining reject cascade. A slightly conservative horizon
	// merely costs an idle gap that elapses on its own.
	c.recycleBatch(reqs)
	return p.a
}

// recycleBatch recycles every request of a fully-ingested INFER result
// (every entry is terminally answered by now — responded above, or
// earlier by its deadline timer or FailWorker's claw-back missing this
// batch) plus the batch slice itself.
func (c *Controller) recycleBatch(reqs []*Request) {
	for _, r := range reqs {
		c.releaseRequest(r)
	}
	c.releaseBatch(reqs)
}

// absTimeError converts predicted/actual instants into the duration pair
// the error trackers expect.
func absTimeError(predicted, actual simclock.Time) (time.Duration, time.Duration) {
	// Express both as durations from a common origin so Record sees the
	// signed difference.
	return time.Duration(predicted), time.Duration(actual)
}
