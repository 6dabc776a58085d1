package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"clockwork/internal/action"
	"clockwork/internal/gpu"
	"clockwork/internal/modelzoo"
	"clockwork/internal/network"
	"clockwork/internal/rng"
	"clockwork/internal/simclock"
	"clockwork/internal/worker"
	"clockwork/trace"
)

// ClusterConfig assembles a whole serving system: workers, the
// controller, network, and client-side metrics.
type ClusterConfig struct {
	Workers       int
	GPUsPerWorker int

	// PageCacheBytes overrides the per-GPU weight cache (zero = the
	// paper's device memory minus IOCache and Workspace).
	PageCacheBytes int64

	// NoNoise turns off gpu.DefaultNoise, for exact-schedule tests.
	NoNoise bool

	Seed uint64

	// Shards is the number of placement groups (default 1 — the
	// paper's controller, which may load any model on any GPU). With N,
	// a worker's GPUs join group (worker ID mod N) and a model is loaded
	// only onto GPUs of group (FNV-1a of its name mod N); see group.go.
	// Requires Workers >= Shards so no group starts without GPUs.
	Shards int

	// Controller configuration and scheduler factory. A nil
	// NewScheduler selects the paper's ClockworkScheduler.
	Controller   Config
	NewScheduler func() Scheduler

	// NetLatency is the one-way network latency (default
	// network.DefaultLatency). Worker links run at 10Gbps and client
	// links are unconstrained (clients live on many machines).
	NetLatency time.Duration

	// ZeroLengthInputs reproduces the §6.5 scale experiment: clients
	// send zero-length inputs and workers generate inputs on arrival.
	ZeroLengthInputs bool

	// WorkerBestEffort switches workers into the baseline thread-pool
	// execution mode (concurrent EXECs); used with baseline schedulers.
	WorkerBestEffort bool

	// MetricsInterval buckets time series (default 1 minute, matching
	// the paper's plots).
	MetricsInterval time.Duration
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.GPUsPerWorker <= 0 {
		c.GPUsPerWorker = 1
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MetricsInterval <= 0 {
		c.MetricsInterval = time.Minute
	}
	if c.NetLatency <= 0 {
		c.NetLatency = network.DefaultLatency
	}
	return c
}

// ClusterOf returns the cluster behind a *clockwork.System. The root
// package installs it, so harnesses inside the module can read raw
// telemetry while the public API exports no cluster.
var ClusterOf func(system any) *Cluster

// Cluster is a fully wired Clockwork deployment on a single event
// engine: the paper's system, one centralized controller owning every
// GPU, with ClusterConfig.Shards placement groups.
type Cluster struct {
	// Eng is the event engine the controller, workers and links run on.
	Eng *simclock.Engine
	// Ctl is the controller.
	Ctl     *Controller
	Workers []*worker.Worker
	Metrics *Metrics

	cfg ClusterConfig
	src *rng.Source

	// client is the client-side duplex: submissions enter and responses
	// leave over it.
	client *network.Duplex

	// host is the model set as every worker's host RAM sees it, and
	// modelOrder preserves registration order for ModelNames. The
	// controller's model table (Ctl.tab) resolves names.
	host       *worker.Models
	modelOrder []string

	// flight is the attached flight recorder (nil = none), shared by the
	// controller's hooks and the client-side ones here (send instants,
	// completions). See package clockwork/trace.
	flight *trace.Recorder
}

// NewCluster builds a deployment. Register models with RegisterModel (or
// RegisterCopies), then drive load via Submit and run the engine.
// Invalid group geometry (see Validate) panics: it is a
// construction-time programming error.
func NewCluster(cfg ClusterConfig) *Cluster {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	eng := simclock.NewEngine()
	cl := &Cluster{
		Eng:     eng,
		cfg:     cfg,
		src:     rng.NewSource(cfg.Seed),
		Metrics: newMetrics(cfg.MetricsInterval),
		host:    new(worker.Models),
	}
	cl.Ctl = NewController(eng, cfg.Controller, cl.newScheduler())
	cl.Ctl.setGroups(cfg.Shards)
	cl.client = network.NewDuplex(eng)
	cl.client.AtoB.Latency = cfg.NetLatency
	cl.client.BtoA.Latency = cfg.NetLatency
	cl.client.AtoB.BytesPerSecond = 0 // unconstrained
	cl.client.BtoA.BytesPerSecond = 0

	for i := 0; i < cfg.Workers; i++ {
		cl.addWorker()
	}
	return cl
}

// Validate reports a geometry no cluster can hold: more placement
// groups than workers, once defaults apply, so that a group would start
// with no GPU.
func (c ClusterConfig) Validate() error {
	if c = c.withDefaults(); c.Shards > c.Workers {
		return fmt.Errorf("%d placement groups need at least as many workers (have %d)", c.Shards, c.Workers)
	}
	return nil
}

// SetFlightRecorder attaches a flight recorder to the cluster: the
// controller reports its lifecycle events to it, and the client side
// its own. Must be called before the engine runs. A nil recorder
// detaches. Tracing is a pure observer — it never schedules events,
// reads RNG streams, or mints IDs — so attaching one leaves every
// schedule bit-identical.
func (cl *Cluster) SetFlightRecorder(r *trace.Recorder) {
	cl.flight = r
	cl.Ctl.flight = r
}

// FlightRecorder returns the attached recorder (nil when detached).
func (cl *Cluster) FlightRecorder() *trace.Recorder { return cl.flight }

// newScheduler mints the controller's scheduler: the factory when set,
// the paper's scheduler by default.
func (cl *Cluster) newScheduler() Scheduler {
	if cl.cfg.NewScheduler != nil {
		return cl.cfg.NewScheduler()
	}
	return NewClockworkScheduler()
}

// addWorker constructs one worker with the cluster's geometry, wires its
// network link and its controller mirrors, and returns its ID. Worker
// RNG streams derive from the worker ID, so a given worker behaves
// identically whatever the group count, and a worker added at runtime
// gets the same noise stream it would have had at startup.
func (cl *Cluster) addWorker() int {
	id := len(cl.Workers)
	noise := gpu.DefaultNoise
	if cl.cfg.NoNoise {
		noise = gpu.NoNoise
	}
	wcfg := worker.Config{
		ID:             id,
		GPUs:           cl.cfg.GPUsPerWorker,
		PageCacheBytes: cl.cfg.PageCacheBytes,
		Noise:          noise,
		BestEffort:     cl.cfg.WorkerBestEffort,
	}.Resolved()
	// The worker comes up with every registered model (§5.1: workers
	// pre-load all models into host RAM — placement groups partition
	// GPU memory, not host memory): the host set is shared.
	w := worker.New(cl.Eng, cl.src, wcfg, cl.host)
	link := network.NewDuplex(cl.Eng)
	link.AtoB.Latency = cl.cfg.NetLatency
	link.BtoA.Latency = cl.cfg.NetLatency

	wl := &workerLink{cl: cl, w: w, li: link}
	cl.Ctl.AddWorker(id, wcfg.GPUs, wcfg.PageCacheBytes, wl.sendAction)
	w.OnResult = wl.sendResult
	cl.Workers = append(cl.Workers, w)
	cl.Metrics.attachGPUs(w)
	return id
}

// workerLink carries one worker's wire traffic in simclock.Runner form:
// pooled hop nodes replace the per-message delivery closures on both
// directions of the duplex link. Worker, link and controller all live
// on the same engine goroutine, so plain per-worker free lists suffice
// (no locks, no sync.Pool).
type workerLink struct {
	cl *Cluster
	w  *worker.Worker
	li *network.Duplex

	freeA []*actionHop
	freeR []*resultHop
}

// actionHop is one A→B (controller→worker) dispatch in flight on the
// link. Run fires at the delivery instant.
type actionHop struct {
	wl *workerLink
	a  *action.Action
}

func (h *actionHop) Run() {
	wl, a := h.wl, h.a
	h.a = nil
	wl.freeA = append(wl.freeA, h)
	wl.w.Submit(a)
}

// resultHop is one B→A (worker→controller) result in flight.
type resultHop struct {
	wl *workerLink
	r  action.Result
}

func (h *resultHop) Run() {
	wl, r := h.wl, h.r
	h.r = action.Result{}
	wl.freeR = append(wl.freeR, h)
	wl.cl.Ctl.HandleResult(r)
}

// sendAction is the controller-side submit hook wired by addWorker.
func (wl *workerLink) sendAction(a *action.Action, payloadBytes int64) {
	if wl.cl.cfg.ZeroLengthInputs {
		payloadBytes = 0
	}
	var h *actionHop
	if n := len(wl.freeA); n > 0 {
		h, wl.freeA = wl.freeA[n-1], wl.freeA[:n-1]
	} else {
		h = &actionHop{wl: wl}
	}
	h.a = a
	wl.li.AtoB.SendRun(payloadBytes, h)
}

// sendResult is the worker's OnResult hook wired by addWorker.
func (wl *workerLink) sendResult(r action.Result) {
	var bytes int64
	if r.Type == action.Infer && r.Status.IsSuccess() {
		if mi := wl.cl.Ctl.tab.live[r.ModelID]; mi != nil {
			bytes = int64(len(r.RequestIDs)) * mi.zoo.OutputBytes()
		}
	}
	var h *resultHop
	if n := len(wl.freeR); n > 0 {
		h, wl.freeR = wl.freeR[n-1], wl.freeR[:n-1]
	} else {
		h = &resultHop{wl: wl}
	}
	h.r = r
	wl.li.BtoA.SendRun(bytes, h)
}

// Config returns the effective cluster configuration.
func (cl *Cluster) Config() ClusterConfig { return cl.cfg }

// ---- runtime control plane ----

// AddWorker adds one worker (with the cluster's standard geometry) at
// runtime and returns its ID. The new worker's GPUs join placement group
// (id mod Shards); it starts with every registered model in host RAM and
// becomes schedulable immediately.
func (cl *Cluster) AddWorker() int { return cl.addWorker() }

// DrainWorker stops scheduling new actions on worker id; in-flight
// actions finish and their results are honoured.
func (cl *Cluster) DrainWorker(id int) error { return cl.Ctl.DrainWorker(id) }

// FailWorker abruptly fails worker id: scheduling stops, in-flight work
// is lost (its requests fail with ReasonWorkerFailed) and late results
// from the worker are dropped.
func (cl *Cluster) FailWorker(id int) error {
	if err := cl.Ctl.FailWorker(id); err != nil {
		return err
	}
	cl.Workers[id].Fail()
	return nil
}

// WorkerStateOf returns the lifecycle state of worker id.
func (cl *Cluster) WorkerStateOf(id int) (WorkerState, error) { return cl.Ctl.WorkerStateOf(id) }

// WorkerCount returns the number of workers ever added; drained and
// failed workers keep their IDs.
func (cl *Cluster) WorkerCount() int { return len(cl.Workers) }

// ActiveWorkers counts workers currently in WorkerActive state —
// the denominator worker autoscaling reasons over (drained and failed
// workers hold IDs but no capacity). Engine-side read.
func (cl *Cluster) ActiveWorkers() int {
	n := 0
	for id := range cl.Workers {
		st, err := cl.Ctl.WorkerStateOf(id)
		if err == nil && st == WorkerActive {
			n++
		}
	}
	return n
}

// InjectDisturbance stalls a GPU's execution engine for d — the §4.3
// class of external slowdowns (thermal throttling, maintenance tasks)
// the controller cannot predict, promoted from the fault-injection test
// harness to a first-class API.
func (cl *Cluster) InjectDisturbance(workerID, gpuID int, d time.Duration) error {
	if workerID < 0 || workerID >= len(cl.Workers) {
		return fmt.Errorf("%w: %d (have %d)", ErrNoSuchWorker, workerID, len(cl.Workers))
	}
	w := cl.Workers[workerID]
	if gpuID < 0 || gpuID >= w.NumGPUs() {
		return fmt.Errorf("%w: worker %d has no GPU %d", ErrNoSuchWorker, workerID, gpuID)
	}
	w.GPU(gpuID).Dev.InjectDisturbance(d)
	return nil
}

// UnregisterModel removes a model instance cluster-wide. Queued requests
// fail with ReasonUnregistered; replicas are unloaded. Models with
// in-flight actions return ErrModelBusy.
func (cl *Cluster) UnregisterModel(name string) error {
	mi := cl.Ctl.tab.lookup(name)
	if mi == nil {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if err := cl.Ctl.UnregisterModel(name); err != nil {
		return err
	}
	for i, n := range cl.modelOrder {
		if n == name {
			cl.modelOrder = append(cl.modelOrder[:i], cl.modelOrder[i+1:]...)
			break
		}
	}
	cl.host.Unregister(mi.id)
	return nil
}

// ModelNames returns the currently registered model instance names in
// cluster-global registration order.
func (cl *Cluster) ModelNames() []string {
	out := make([]string, len(cl.modelOrder))
	copy(out, cl.modelOrder)
	return out
}

// ModelCount returns the number of registered model instances — O(1),
// for callers that don't need the names.
func (cl *Cluster) ModelCount() int { return len(cl.modelOrder) }

// Stats returns the controller's arrival and action counters. Outcomes
// are in Metrics.Total.
func (cl *Cluster) Stats() Stats { return cl.Ctl.Stats() }

// ModelStats returns the per-model metrics slice for name. ok is false
// when the model is unknown and has never produced a response.
func (cl *Cluster) ModelStats(name string) (ModelStats, bool) {
	id := cl.Ctl.tab.resolve(name)
	st, ok := cl.Metrics.modelStats(id, cl.Eng.Now().Duration())
	if !ok && cl.Ctl.tab.live[id] == nil {
		return ModelStats{}, false
	}
	return st, true
}

// TenantStats returns the per-tenant metrics slice for tenant.
func (cl *Cluster) TenantStats(tenant string) (Outcomes, bool) {
	return cl.Metrics.TenantStats(tenant)
}

// ---- registration ----

// RegisterModel announces one model instance to the controller and to
// every worker (workers pre-load all models into host RAM, §5.1,
// whatever GPUs the model's placement group holds).
func (cl *Cluster) RegisterModel(name string, zoo *modelzoo.Model) error {
	if err := cl.Ctl.RegisterModel(name, zoo); err != nil {
		return err
	}
	cl.modelOrder = append(cl.modelOrder, name)
	cl.host.Register(cl.Ctl.tab.lookup(name).id, zoo)
	return nil
}

// RegisterCopies registers n independent instances of zoo named
// "<base>#0" … "<base>#n-1" and returns their names — the paper's
// "15 separate copies of ResNet50" pattern. A name collision with an
// existing instance is ErrDuplicateModel (instances registered before
// the collision stay registered).
func (cl *Cluster) RegisterCopies(base string, zoo *modelzoo.Model, n int) ([]string, error) {
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("%s#%d", base, i)
		if err := cl.RegisterModel(names[i], zoo); err != nil {
			return names[:i], err
		}
	}
	return names, nil
}

// ---- submission ----

// ResultSink receives a submission's final outcome, on the engine
// goroutine, exactly once per accepted submission; like every
// completion it must stay short and non-blocking. It is the one
// completion interface of Submit: callers that pool their per-request
// state (the serve transports) implement it, a *Handle is one, and
// ResultFunc adapts a closure.
type ResultSink interface {
	OnResult(Result)
}

// ResultFunc adapts a closure to ResultSink, as simclock.Func adapts
// one to Runner. A func value is pointer-shaped, so the conversion
// allocates nothing beyond the closure itself.
type ResultFunc func(Result)

// OnResult implements ResultSink.
func (f ResultFunc) OnResult(r Result) { f(r) }

// Handle tracks one submitted request from the client's side: it is the
// ResultSink that remembers. In simulation mode inspect or cancel
// between Run* calls; in live mode (the engine paced by a
// simclock.Driver on its own goroutine) Done, Outcome, ID and Wait are
// safe to call from any goroutine — completion is published through a
// channel, so callers block on Wait instead of busy-polling Done.
//
// Handles recycle through a pool (see Release): a generation counter,
// bumped on every release, lets callers that outlive their handle prove
// staleness instead of observing the recycled successor — the same
// guard simclock.Timer and Request use.
type Handle struct {
	// doneCh is a reusable capacity-1 token channel. Completion sends
	// one token; every reader takes it and immediately puts it back
	// (baton passing), which gives close()-style broadcast without
	// minting a fresh channel per request.
	doneCh chan struct{}

	// mu guards the mutable fields below: they are written on the
	// engine goroutine and may be read from client goroutines.
	mu   sync.Mutex
	gen  uint64     // recycling generation; bumped by Release
	id   uint64     // controller-assigned ID, cached (req itself recycles)
	next ResultSink // completion forwarded after the handle settles
	// cl, model, req and reqGen identify the controller-side request
	// while it is pending, bound when it arrives there. The request
	// object may be recycled the instant its response fires, so every
	// use goes through CancelRequestGen.
	cl            *Cluster
	req           *Request
	reqGen        uint64
	cancelPending bool
	done          bool
	res           Result
}

var handlePool = sync.Pool{New: func() any {
	return &Handle{doneCh: make(chan struct{}, 1)}
}}

// NewHandle takes a handle from the pool, ready to pass to Submit as
// its sink; next (may be nil) receives the outcome after the handle has
// settled. Release returns it.
func NewHandle(next ResultSink) *Handle {
	h := handlePool.Get().(*Handle)
	select {
	case <-h.doneCh: // drain a leftover token, defensively
	default:
	}
	h.next = next
	return h
}

// Gen returns the handle's recycling generation. Capture it alongside
// the pointer when retaining a handle past its Release point; a
// mismatch later proves the handle now belongs to someone else.
func (h *Handle) Gen() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gen
}

// Release returns a completed handle to the pool. Call it only when no
// other goroutine will touch the handle again (all Waits returned); a
// handle that is still pending is not pooled — the in-flight completion
// will still write into it — but its generation is bumped so gen-guarded
// wrappers treat it as gone either way.
func (h *Handle) Release() {
	h.mu.Lock()
	h.gen++
	if !h.done {
		h.mu.Unlock()
		return
	}
	h.id, h.next = 0, nil
	h.cl = nil
	h.req, h.reqGen = nil, 0
	h.cancelPending, h.done = false, false
	h.res = Result{}
	h.mu.Unlock()
	select {
	case <-h.doneCh:
	default:
	}
	handlePool.Put(h)
}

// ID returns the controller-assigned request ID (0 while the request is
// still in transit to the controller).
func (h *Handle) ID() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.id
}

// Done reports whether the request has a final outcome.
func (h *Handle) Done() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.done
}

// Outcome returns the final result; ok is false while the request is
// still pending.
func (h *Handle) Outcome() (Result, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res, h.done
}

// Wait blocks until the request reaches a final outcome or ctx is
// cancelled. It is the live-mode completion primitive: something else —
// a simclock.Driver, or test code calling Run* — must be advancing the
// engine, or Wait only returns via ctx.
func (h *Handle) Wait(ctx context.Context) (Result, error) {
	h.mu.Lock()
	if h.done {
		res := h.res
		h.mu.Unlock()
		return res, nil
	}
	h.mu.Unlock()
	select {
	case <-h.doneCh:
		// Pass the baton so any other waiter also wakes.
		h.doneCh <- struct{}{}
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res, nil
}

// Cancel requests cancellation and reports whether it took effect. A
// still-queued request is cancelled immediately. A request still in transit to the controller is
// cancelled deterministically on arrival, before the scheduler can
// dispatch it. Only a request already handed to a worker cannot be
// clawed back (§4.2 — workers are never second-guessed mid-action):
// then Cancel reports false and the request runs to its normal outcome.
func (h *Handle) Cancel() bool {
	h.mu.Lock()
	if h.done {
		h.mu.Unlock()
		return false
	}
	if h.req == nil {
		h.cancelPending = true
		h.mu.Unlock()
		return true
	}
	req, gen := h.req, h.reqGen
	cl := h.cl
	h.mu.Unlock()
	// CancelRequestGen mutates controller state: like every engine-side
	// call it must run on the engine goroutine (in live mode, via
	// Live.Do/Inject). The handle lock is released first — the
	// cancellation path schedules the response event that will re-enter
	// the completion callback. The generation check makes a cancel that
	// raced the response (and the request's recycling) a no-op.
	return cl.Ctl.CancelRequestGen(req, gen)
}

// OnResult implements ResultSink: settle the handle, publish the
// completion token, then forward to the next sink — publishing first,
// so a next sink that hands the result to another goroutine never sees
// its own handle still pending.
func (h *Handle) OnResult(res Result) {
	h.mu.Lock()
	h.done = true
	if h.id == 0 {
		// The request never reported in via deliver (pre-cancelled or
		// unregistered mid-transit): the response carries the minted ID.
		h.id = res.RequestID
	}
	// The controller-side request recycles the moment its response
	// fires; drop the reference so a post-completion Cancel is a pure
	// handle-local no-op.
	h.req, h.reqGen = nil, 0
	h.res = res
	next := h.next
	h.next = nil
	h.mu.Unlock()
	// The token send replaces close(): waiters baton-pass it.
	select {
	case h.doneCh <- struct{}{}:
	default:
	}
	if next != nil {
		next.OnResult(res)
	}
}

// Submit issues one client request: the input travels the client link,
// and sink (may be nil) receives the outcome once it is back at the
// client, where latency is measured and recorded. It is the one
// submission path — a *Handle is a sink, ResultFunc adapts a closure,
// and nothing is allocated per request on the way down.
//
// The model must be registered at submission time (ErrUnknownModel
// otherwise); it is resolved again when the request arrives at the
// controller, so one unregistered mid-transit fails the request rather
// than corrupting controller state.
func (cl *Cluster) Submit(spec SubmitSpec, sink ResultSink) error {
	mi, err := cl.checkSpec(&spec)
	if err != nil {
		return err
	}
	inputBytes := mi.zoo.InputBytes()
	if cl.cfg.ZeroLengthInputs {
		inputBytes = 0
	}
	s := submissionPool.Get().(*submission)
	s.cl, s.spec, s.zoo, s.sink = cl, spec, mi.zoo, sink
	s.group, s.sentAt = mi.group, cl.Eng.Now()
	cl.client.AtoB.SendRun(inputBytes, s)
	return nil
}

// checkSpec validates a submission before any resource is acquired and
// resolves its model — the one time the request's name is looked up. The
// ID goes into the spec; each later hop reads the table by it.
func (cl *Cluster) checkSpec(spec *SubmitSpec) (*ModelInfo, error) {
	if spec.Model == "" {
		return nil, fmt.Errorf("%w: empty model name", ErrInvalidRequest)
	}
	if spec.SLO <= 0 {
		return nil, fmt.Errorf("%w: non-positive SLO %v", ErrInvalidRequest, spec.SLO)
	}
	if spec.MaxBatchSize < 0 {
		return nil, fmt.Errorf("%w: negative batch cap %d", ErrInvalidRequest, spec.MaxBatchSize)
	}
	mi := cl.Ctl.tab.lookup(spec.Model)
	if mi == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, spec.Model)
	}
	spec.id = mi.id
	return mi, nil
}

// submission carries one request across its client-side network hops.
// It is the hops' preallocated event receiver (simclock.Runner): one
// struct serves the client→controller delivery and the response→client
// completion, so the per-request serving path schedules both without
// per-event closures. It is
// also the controller-side Responder, so the outcome comes back without
// a per-request func value. Submissions recycle through submissionPool
// at the end of complete(), the last instant anything references them.
type submission struct {
	cl     *Cluster
	spec   SubmitSpec
	zoo    *modelzoo.Model
	group  int // the model's placement group, for the trace
	sentAt simclock.Time
	sink   ResultSink

	res   Result
	phase uint8
}

var submissionPool = sync.Pool{New: func() any { return new(submission) }}

const (
	subDeliver  uint8 = iota // next Run: arrive at the controller
	subComplete              // next Run: arrive back at the client
)

// Run implements simclock.Runner, dispatching on the submission's phase.
func (s *submission) Run() {
	if s.phase == subDeliver {
		s.deliver()
	} else {
		s.complete()
	}
}

// deliver runs at the controller side of the client link: submit.
func (s *submission) deliver() {
	cl := s.cl
	// A Cancel issued while the request was on the wire is applied
	// inside the controller's submission, before the scheduler can
	// dispatch — the in-transit cancel is authoritative. Only a Handle
	// can cancel; any other sink has no cancel-in-transit to apply.
	h, _ := s.sink.(*Handle)
	if h != nil {
		h.mu.Lock()
		s.spec.preCancelled = h.cancelPending
		h.mu.Unlock()
	}
	req := cl.Ctl.Submit(s.spec, s)
	if req != nil {
		if h != nil {
			h.mu.Lock()
			h.id, h.cl = req.ID, cl
			h.req, h.reqGen = req, req.Gen()
			h.mu.Unlock()
		}
		// The controller-side Admitted hook already created the trace;
		// stamp the client-side send instant it cannot know.
		cl.flight.Arrived(req.ID, s.sentAt.Duration())
	}
}

// Respond implements core.Responder: it receives the controller's
// terminal outcome and sends it back over the client link.
func (s *submission) Respond(res Result) {
	cl := s.cl
	outBytes := s.zoo.OutputBytes()
	if !res.Success {
		outBytes = 0
	}
	s.res = res
	s.phase = subComplete
	cl.client.BtoA.SendRun(outBytes, s)
}

// complete runs at the client side of the response hop: stamp the
// latency, record metrics, hand the result to the sink.
func (s *submission) complete() {
	cl := s.cl
	now := cl.Eng.Now()
	res := s.res
	res.Latency = now.Sub(s.sentAt)
	cl.Metrics.record(now, res, s.spec.SLO)
	// Finalize the flight-recorder trace with the client-observed
	// outcome.
	cl.flight.Completed(s.group, trace.Outcome{
		ID: res.RequestID, Model: s.spec.Model, Tenant: s.spec.Tenant,
		Success: res.Success, Reason: uint8(res.Reason), ReasonStr: res.Reason.String(),
		Batch: res.Batch, ColdStart: res.ColdStart,
		SLO: s.spec.SLO, Latency: res.Latency,
	}, now.Duration())
	sink := s.sink
	*s = submission{}
	submissionPool.Put(s)
	if sink != nil {
		sink.OnResult(res)
	}
}

// RunFor advances the cluster by d.
func (cl *Cluster) RunFor(d time.Duration) { cl.Eng.RunFor(d) }

// RunUntil advances the cluster to instant t.
func (cl *Cluster) RunUntil(t simclock.Time) { cl.Eng.RunUntil(t) }
