package core

import (
	"context"
	"fmt"
	"hash/fnv"
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

// ClusterConfig assembles a whole serving system: workers, controller
// shards, network, and client-side metrics.
type ClusterConfig struct {
	Workers       int
	GPUsPerWorker int

	// Worker geometry overrides (zero = paper defaults).
	DeviceMemBytes int64
	PageCacheBytes int64

	// Noise selects the hardware timing noise model; the zero value
	// means gpu.DefaultNoise (use gpu.NoNoise for exact-schedule tests
	// by setting NoNoise=true).
	Noise   gpu.Noise
	NoNoise bool

	Seed uint64

	// Shards partitions the control plane into this many scheduler
	// shards (default 1 — the paper's centralized controller). Each
	// shard runs its own controller and scheduler over a disjoint slice
	// of the cluster's workers (and therefore GPUs) and a disjoint
	// subset of models, all on the shared event engine; see shard.go
	// and rebalance.go. Requires Workers >= Shards so no shard owns
	// zero GPUs.
	Shards int

	// EnginePerShard gives every shard its own event engine — and, in
	// live mode, its own pacing goroutine — so an N-shard control plane
	// can use N cores. Each shard's controller, workers and client link
	// live on that shard's engine; cross-shard interactions (submission
	// forwarding after a migration) travel through the cluster's
	// cross-shard injection hook, and whole-cluster mutations
	// (registration, migration, rebalancing) require every engine to be
	// paused (live mode: a Live.Do barrier). Simulation entry points
	// (RunFor/RunUntil) and Trace capture need the single-engine
	// control plane and are rejected. Bit-exact reproducibility is a
	// single-engine property: with EnginePerShard the cross-shard event
	// interleaving is wall-clock dependent, exactly like injection
	// timing in live mode.
	EnginePerShard bool

	// SkewBound caps how far one shard's virtual clock may run ahead of
	// a lagging sibling's in EnginePerShard mode (the conservative-PDES
	// lookahead). Zero derives it from the cross-shard interaction
	// floor: no shard can affect another in under one network latency,
	// widened so an OS scheduling quantum at high speed multipliers
	// does not throttle healthy shards. Ignored without EnginePerShard.
	SkewBound time.Duration

	// RebalanceInterval is the cross-shard rebalancer's period (default
	// 1s of virtual time; only armed when Shards > 1). RebalanceFactor
	// is the demand-skew trigger: a rebalance pass migrates models when
	// the hottest shard's demand exceeds factor × the coldest's
	// (default 1.5). MaxMigrations bounds migrations per pass
	// (default 4).
	RebalanceInterval time.Duration
	RebalanceFactor   float64
	MaxMigrations     int

	// Controller configuration and scheduler. A nil Scheduler selects
	// the paper's ClockworkScheduler; NewClusterWithPolicy resolves
	// schedulers by registry name instead. With Shards > 1 every shard
	// needs its own scheduler instance: set NewScheduler (a factory)
	// instead of Scheduler.
	Controller   Config
	Scheduler    Scheduler
	NewScheduler func() Scheduler

	// Network shape. Client bandwidth 0 = unconstrained aggregate
	// (clients live on many machines); worker links default to 10Gbps.
	NetLatency      time.Duration
	WorkerBandwidth float64
	ClientBandwidth float64

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
	if c.RebalanceInterval <= 0 {
		c.RebalanceInterval = time.Second
	}
	if c.RebalanceFactor <= 1 {
		c.RebalanceFactor = 1.5
	}
	if c.MaxMigrations <= 0 {
		c.MaxMigrations = 4
	}
	if c.MetricsInterval <= 0 {
		c.MetricsInterval = time.Minute
	}
	var zero gpu.Noise
	if c.Noise == zero && !c.NoNoise {
		c.Noise = gpu.DefaultNoise
	}
	if c.NoNoise {
		c.Noise = gpu.NoNoise
	}
	if c.NetLatency <= 0 {
		c.NetLatency = network.DefaultLatency
	}
	if c.WorkerBandwidth <= 0 {
		c.WorkerBandwidth = network.DefaultBandwidth
	}
	return c
}

// ClusterOf returns the cluster behind a *clockwork.System. The root
// package installs it, so harnesses inside the module can read raw
// telemetry while the public API exports no cluster.
var ClusterOf func(system any) *Cluster

// Cluster is a fully wired Clockwork deployment on a single event
// engine. With ClusterConfig.Shards == 1 (the default) it is the
// paper's system: one centralized controller owning every GPU. With
// Shards == N the control plane is partitioned: Ctls holds one
// controller per shard, each owning a disjoint slice of workers and a
// disjoint subset of models, with submissions routed by model
// ownership and a periodic rebalancer migrating models between shards
// when demand skews (see rebalance.go).
type Cluster struct {
	// Eng is the event engine — the only engine with one scheduling
	// domain (the default), shard 0's engine with EnginePerShard.
	Eng *simclock.Engine
	// Ctl is shard 0's controller — the entire control plane when
	// Shards == 1, kept as the compatibility handle for experiment
	// harnesses that read raw controller telemetry. Sharded callers
	// iterate Ctls or use the cluster-level aggregates (Stats,
	// ShardCount, ShardOf).
	Ctl     *Controller
	Ctls    []*Controller
	Workers []*worker.Worker
	Metrics *Metrics

	cfg ClusterConfig
	src *rng.Source

	// engines holds one engine per scheduling domain: length 1 without
	// EnginePerShard, one per shard with it. clientLinks mirrors it —
	// each engine gets its own client-side duplex so submissions enter
	// and responses leave on the engine that owns them.
	engines     []*simclock.Engine
	clientLinks []*network.Duplex

	// route is the lock-free model→shard routing hint for goroutines
	// outside any engine (live admission routing), which may not read
	// models. It tracks each model's owner but may be momentarily stale
	// across a migration; a submission landing on a stale shard is
	// forwarded to the real owner through crossInject, so staleness
	// costs one extra network hop, never correctness.
	route sync.Map

	// crossInject delivers r onto another shard's engine at virtual
	// instant at (EnginePerShard only; the live layer installs it
	// before any engine runs). It reports false when the driver has
	// stopped.
	crossInject func(shard int, at simclock.Time, r simclock.Runner) bool

	// ---- shard bookkeeping (cluster-global; controllers only know
	// their own slice) ----

	// models is the cluster-wide model table every shard's controller
	// shares (models.go): a name's ID, and through its live registration
	// its catalogue entry and owning shard — the initial owner is a
	// consistent hash of the name, changed only by migration. host is
	// the same set as every worker's host RAM sees it, and modelOrder
	// preserves cluster-global registration order for ModelNames.
	models     *modelTable
	host       *worker.Models
	modelOrder []string

	// workerShard maps global worker ID → owning shard (assignment is
	// id mod Shards, so runtime scale-out stripes deterministically).
	workerShard []int

	migrations uint64

	// flight is the attached flight recorder (nil = none). Per-shard
	// hooks live on each controller; the cluster holds the whole-
	// recorder handle for routing-layer events (client send instants,
	// completions, migrations). See package clockwork/trace.
	flight *trace.Recorder
}

// NewCluster builds a deployment. Register models with RegisterModel (or
// RegisterCopies), then drive load via Submit and run the engine.
// Invalid shard geometry (more shards than workers, or a single
// Scheduler instance shared across shards) panics: both are
// construction-time programming errors. NewClusterWithPolicy returns
// them as errors instead.
func NewCluster(cfg ClusterConfig) *Cluster {
	cfg = cfg.withDefaults()
	if err := cfg.validateShards(); err != nil {
		panic("core: " + err.Error())
	}
	nEng := 1
	if cfg.EnginePerShard {
		nEng = cfg.Shards
	}
	engines := make([]*simclock.Engine, nEng)
	for i := range engines {
		engines[i] = simclock.NewEngine()
	}

	cl := &Cluster{
		Eng:     engines[0],
		cfg:     cfg,
		src:     rng.NewSource(cfg.Seed),
		engines: engines,
		Metrics: newMetrics(cfg.MetricsInterval),
		models:  newModelTable(),
		host:    new(worker.Models),
	}
	if nEng > 1 {
		cl.Metrics.setConcurrent()
	}
	for i := 0; i < cfg.Shards; i++ {
		ccfg := cfg.Controller
		ccfg.IDStart = uint64(i)
		ccfg.IDStride = uint64(cfg.Shards)
		ctl := NewController(cl.engFor(i), ccfg, cl.newScheduler())
		ctl.tab, ctl.shard = cl.models, i
		cl.Ctls = append(cl.Ctls, ctl)
	}
	cl.Ctl = cl.Ctls[0]
	for _, eng := range engines {
		link := network.NewDuplex(eng)
		link.AtoB.Latency = cfg.NetLatency
		link.BtoA.Latency = cfg.NetLatency
		link.AtoB.BytesPerSecond = cfg.ClientBandwidth
		link.BtoA.BytesPerSecond = cfg.ClientBandwidth
		cl.clientLinks = append(cl.clientLinks, link)
	}

	for i := 0; i < cfg.Workers; i++ {
		cl.addWorker()
	}
	// With one engine per shard there is no shared engine to carry the
	// periodic rebalance timer; the live layer drives RebalanceOnce from
	// the wall clock under a stop-the-world barrier instead.
	if cfg.Shards > 1 && !cfg.EnginePerShard {
		cl.armRebalancer()
	}
	return cl
}

// engFor returns the engine hosting shard — the shared engine without
// EnginePerShard, the shard's own otherwise.
func (cl *Cluster) engFor(shard int) *simclock.Engine {
	if len(cl.engines) == 1 {
		return cl.engines[0]
	}
	return cl.engines[shard]
}

// linkIdx maps a shard to its client-link index (0 without
// EnginePerShard: all shards share one duplex).
func (cl *Cluster) linkIdx(shard int) int {
	if len(cl.clientLinks) == 1 {
		return 0
	}
	return shard
}

func (cl *Cluster) multiEngine() bool { return len(cl.engines) > 1 }

// EnginePerShard reports whether the cluster runs one engine per shard.
func (cl *Cluster) EnginePerShard() bool { return cl.multiEngine() }

// Engines returns the cluster's engines in shard order (length 1
// without EnginePerShard). The live layer paces them.
func (cl *Cluster) Engines() []*simclock.Engine { return cl.engines }

// SetCrossShardInject installs the cross-shard delivery hook
// (EnginePerShard mode). Must be called before any engine runs.
func (cl *Cluster) SetCrossShardInject(fn func(shard int, at simclock.Time, r simclock.Runner) bool) {
	cl.crossInject = fn
}

// OwnerShardHint resolves model's owning shard from the lock-free
// routing hint — safe from any goroutine, possibly one migration stale
// (submissions forwarded cross-shard absorb the staleness). ok is false
// for unregistered models.
func (cl *Cluster) OwnerShardHint(model string) (int, bool) {
	s, ok := cl.route.Load(model)
	if !ok {
		return 0, false
	}
	return s.(int), true
}

func (c ClusterConfig) validateShards() error {
	if c.Shards > c.Workers {
		return fmt.Errorf("%d shards need at least as many workers (have %d)", c.Shards, c.Workers)
	}
	if c.Shards > 1 && c.NewScheduler == nil && c.Scheduler != nil {
		return fmt.Errorf("Shards=%d needs NewScheduler (a per-shard factory); a single Scheduler instance cannot drive multiple shards", c.Shards)
	}
	return nil
}

// SetFlightRecorder attaches a flight recorder to the cluster: every
// controller gets its shard's engine-confined recorder, and the
// routing layer reports client-side lifecycle events. Must be called
// before any engine runs (the recorder binds its per-shard state
// here). A nil recorder detaches. Tracing is a pure observer — it
// never schedules events, reads RNG streams, or mints IDs — so
// attaching one leaves every schedule bit-identical, and unlike the
// old decision-stream capture it works under EnginePerShard (each
// shard's recorder is confined to that shard's engine goroutine).
func (cl *Cluster) SetFlightRecorder(r *trace.Recorder) {
	if r != nil {
		r.Bind(len(cl.Ctls))
	}
	cl.flight = r
	for i, ctl := range cl.Ctls {
		ctl.flight = r.Shard(i)
	}
}

// FlightRecorder returns the attached recorder (nil when detached).
func (cl *Cluster) FlightRecorder() *trace.Recorder { return cl.flight }

// newScheduler mints one shard's scheduler: the factory when set, the
// single configured instance otherwise (Shards == 1 only), the paper's
// scheduler by default.
func (cl *Cluster) newScheduler() Scheduler {
	switch {
	case cl.cfg.NewScheduler != nil:
		return cl.cfg.NewScheduler()
	case cl.cfg.Scheduler != nil:
		return cl.cfg.Scheduler
	default:
		return NewClockworkScheduler()
	}
}

// shardForName is the consistent initial model→shard assignment: an
// FNV-1a hash of the instance name mod Shards, so placement is a pure
// function of (name, shard count) — independent of registration order
// and stable across runs.
func (cl *Cluster) shardForName(name string) int {
	if len(cl.Ctls) == 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum64() % uint64(len(cl.Ctls)))
}

// ownerOf resolves the shard that currently owns model id. The fallback
// covers names no longer registered: the controller it selects answers
// with ReasonUnregistered, so any shard is semantically correct — using
// the submission-time owner keeps the accounting deterministic.
func (cl *Cluster) ownerOf(id ModelID, fallback int) int {
	if mi := cl.models.live[id]; mi != nil {
		return mi.owner.shard
	}
	return fallback
}

// addWorker constructs one worker with the cluster's geometry, wires its
// network link and its owning shard's controller mirrors, and returns
// its global ID. Worker RNG streams derive from the worker ID — not the
// shard — so a given worker behaves identically whatever the shard
// count, and a worker added at runtime gets the same noise stream it
// would have had at startup.
func (cl *Cluster) addWorker() int {
	id := len(cl.Workers)
	shard := id % len(cl.Ctls)
	ctl := cl.Ctls[shard]
	wcfg := worker.Config{
		ID:             id,
		GPUs:           cl.cfg.GPUsPerWorker,
		DeviceMemBytes: cl.cfg.DeviceMemBytes,
		PageCacheBytes: cl.cfg.PageCacheBytes,
		Noise:          cl.cfg.Noise,
		BestEffort:     cl.cfg.WorkerBestEffort,
	}.Resolved()
	// The worker comes up with every registered model (§5.1: workers
	// pre-load all models into host RAM — shard ownership partitions
	// scheduling, not host memory, which is what makes model migration a
	// pure control-plane operation): the host set is shared.
	w := worker.New(cl.engFor(shard), cl.src, wcfg, cl.host)
	link := network.NewDuplex(cl.engFor(shard))
	link.AtoB.Latency = cl.cfg.NetLatency
	link.BtoA.Latency = cl.cfg.NetLatency
	link.AtoB.BytesPerSecond = cl.cfg.WorkerBandwidth
	link.BtoA.BytesPerSecond = cl.cfg.WorkerBandwidth

	wl := &workerLink{cl: cl, ctl: ctl, w: w, li: link}
	ctl.AddWorker(id, wcfg.GPUs, wcfg.PageCacheBytes, wcfg.PageSize, wl.sendAction)
	w.OnResult = wl.sendResult
	cl.Workers = append(cl.Workers, w)
	cl.workerShard = append(cl.workerShard, shard)
	cl.Metrics.attachGPUs(w)
	return id
}

// workerLink carries one worker's wire traffic in simclock.Runner form:
// pooled hop nodes replace the per-message delivery closures on both
// directions of the duplex link. Worker, link and controller all live
// on the same engine goroutine, so plain per-worker free lists suffice
// (no locks, no sync.Pool).
type workerLink struct {
	cl  *Cluster
	ctl *Controller
	w   *worker.Worker
	li  *network.Duplex

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
	wl.ctl.HandleResult(r)
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
		if mi := wl.cl.models.live[r.ModelID]; mi != nil {
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
// runtime and returns its ID. The new worker joins shard (id mod
// Shards), starts with every registered model in host RAM and becomes
// schedulable immediately.
func (cl *Cluster) AddWorker() int { return cl.addWorker() }

// DrainWorker stops scheduling new actions on worker id; in-flight
// actions finish and their results are honoured. Routed to the owning
// shard.
func (cl *Cluster) DrainWorker(id int) error {
	ctl, err := cl.ownerOfWorker(id)
	if err != nil {
		return err
	}
	return ctl.DrainWorker(id)
}

// FailWorker abruptly fails worker id: scheduling stops, in-flight work
// is lost (its requests fail with ReasonWorkerFailed) and late results
// from the worker are dropped. Routed to the owning shard.
func (cl *Cluster) FailWorker(id int) error {
	ctl, err := cl.ownerOfWorker(id)
	if err != nil {
		return err
	}
	if err := ctl.FailWorker(id); err != nil {
		return err
	}
	cl.Workers[id].Fail()
	return nil
}

// WorkerStateOf returns the lifecycle state of worker id, routed to the
// owning shard.
func (cl *Cluster) WorkerStateOf(id int) (WorkerState, error) {
	ctl, err := cl.ownerOfWorker(id)
	if err != nil {
		return WorkerActive, err
	}
	return ctl.WorkerStateOf(id)
}

// WorkerCount returns the number of workers ever added, cluster-wide;
// drained and failed workers keep their IDs.
func (cl *Cluster) WorkerCount() int { return len(cl.Workers) }

// ActiveWorkers counts workers currently in WorkerActive state —
// the denominator worker autoscaling reasons over (drained and failed
// workers hold IDs but no capacity). Engine-side read.
func (cl *Cluster) ActiveWorkers() int {
	n := 0
	for id := range cl.Workers {
		st, err := cl.Ctls[cl.workerShard[id]].WorkerStateOf(id)
		if err == nil && st == WorkerActive {
			n++
		}
	}
	return n
}

// ShardDemand is one shard's slice of the demand/capacity signal the
// closed-loop autoscaler consumes: outstanding Appendix-B demand
// (GPU-time of queued work) against enabled GPU mirrors.
type ShardDemand struct {
	Demand          time.Duration
	SchedulableGPUs int
}

// DemandSnapshot returns every shard's demand/capacity pair, indexed
// by shard. Engine-side read: with EnginePerShard it touches every
// shard's controller, so it must run under a Live.Do barrier.
func (cl *Cluster) DemandSnapshot() []ShardDemand {
	out := make([]ShardDemand, len(cl.Ctls))
	for i, ctl := range cl.Ctls {
		out[i] = ShardDemand{Demand: ctl.TotalDemand(), SchedulableGPUs: ctl.SchedulableGPUs()}
	}
	return out
}

// ownerOfWorker resolves the controller owning global worker id.
func (cl *Cluster) ownerOfWorker(id int) (*Controller, error) {
	if id < 0 || id >= len(cl.Workers) {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrNoSuchWorker, id, len(cl.Workers))
	}
	return cl.Ctls[cl.workerShard[id]], nil
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
	mi := cl.models.lookup(name)
	if mi == nil {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if err := mi.owner.UnregisterModel(name); err != nil {
		return err
	}
	cl.route.Delete(name)
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

// Stats sums controller-side outcome counters across all shards. With
// Shards == 1 it equals Ctl.Stats().
func (cl *Cluster) Stats() Stats {
	if len(cl.Ctls) == 1 {
		return cl.Ctl.Stats()
	}
	var sum Stats
	for _, ctl := range cl.Ctls {
		st := ctl.Stats()
		sum.Requests += st.Requests
		sum.Succeeded += st.Succeeded
		sum.Cancelled += st.Cancelled
		sum.Rejected += st.Rejected
		sum.ColdStart += st.ColdStart
		sum.WorkerLost += st.WorkerLost
		sum.Unregistered += st.Unregistered
		sum.ActionsInfer += st.ActionsInfer
		sum.ActionsLoad += st.ActionsLoad
		sum.ActionsUnload += st.ActionsUnload
		sum.LoadFailures += st.LoadFailures
	}
	return sum
}

// ShardCount returns the number of scheduler shards.
func (cl *Cluster) ShardCount() int { return len(cl.Ctls) }

// ShardOf returns the shard currently owning model.
func (cl *Cluster) ShardOf(model string) (int, bool) {
	mi := cl.models.lookup(model)
	if mi == nil {
		return 0, false
	}
	return mi.owner.shard, true
}

// Migrations returns the number of cross-shard model migrations
// performed so far (rebalancer plus manual MigrateModel calls).
func (cl *Cluster) Migrations() uint64 { return cl.migrations }

// ModelStats returns the per-model metrics slice for name. ok is false
// when the model is unknown and has never produced a response.
func (cl *Cluster) ModelStats(name string) (ModelStats, bool) {
	id := cl.models.resolve(name)
	st, ok := cl.Metrics.modelStats(id, cl.Eng.Now().Duration())
	if !ok && cl.models.live[id] == nil {
		return ModelStats{}, false
	}
	return st, true
}

// TenantStats returns the per-tenant metrics slice for tenant.
func (cl *Cluster) TenantStats(tenant string) (TenantStats, bool) {
	return cl.Metrics.TenantStats(tenant)
}

// ---- registration ----

// RegisterModel announces one model instance to its owning shard's
// controller and to every worker (workers pre-load all models into host
// RAM, §5.1, regardless of shard ownership).
func (cl *Cluster) RegisterModel(name string, zoo *modelzoo.Model) error {
	shard := cl.shardForName(name)
	if err := cl.Ctls[shard].RegisterModel(name, zoo); err != nil {
		return err
	}
	cl.route.Store(name, shard)
	cl.modelOrder = append(cl.modelOrder, name)
	cl.host.Register(cl.models.lookup(name).id, zoo)
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

// ResponseSink receives a submission's terminal outcome, on the engine
// goroutine, exactly once per accepted submission; like every
// completion it must stay short and non-blocking. It is the one
// completion interface of Submit: callers that pool their per-request
// state (the serve transports) implement it, a *Handle is one, and
// ResponseFunc adapts a closure.
type ResponseSink interface {
	OnResponse(resp Response, latency time.Duration)
}

// ResponseFunc adapts a closure to ResponseSink, as simclock.Func adapts
// one to Runner. A func value is pointer-shaped, so the conversion
// allocates nothing beyond the closure itself.
type ResponseFunc func(resp Response, latency time.Duration)

// OnResponse implements ResponseSink.
func (f ResponseFunc) OnResponse(resp Response, latency time.Duration) { f(resp, latency) }

// Handle tracks one submitted request from the client's side: it is the
// ResponseSink that remembers. In simulation mode inspect or cancel
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
	gen  uint64       // recycling generation; bumped by Release
	id   uint64       // controller-assigned ID, cached (req itself recycles)
	next ResponseSink // completion forwarded after the handle settles
	// cl, model, req and reqGen identify the controller-side request
	// while it is pending, bound when it arrives there. The request
	// object may be recycled the instant its response fires, so every
	// use goes through CancelRequestGen.
	cl            *Cluster
	model         ModelID
	req           *Request
	reqGen        uint64
	cancelPending bool
	done          bool
	resp          Response
	latency       time.Duration
}

var handlePool = sync.Pool{New: func() any {
	return &Handle{doneCh: make(chan struct{}, 1)}
}}

// NewHandle takes a handle from the pool, ready to pass to Submit as
// its sink; next (may be nil) receives the outcome after the handle has
// settled. Release returns it.
func NewHandle(next ResponseSink) *Handle {
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
	h.cl, h.model = nil, 0
	h.req, h.reqGen = nil, 0
	h.cancelPending, h.done = false, false
	h.resp, h.latency = Response{}, 0
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

// Outcome returns the final response and client-observed latency; ok is
// false while the request is still pending.
func (h *Handle) Outcome() (Response, time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.done {
		return Response{}, 0, false
	}
	return h.resp, h.latency, true
}

// Wait blocks until the request reaches a final outcome or ctx is
// cancelled. It is the live-mode completion primitive: something else —
// a simclock.Driver, or test code calling Run* — must be advancing the
// engine, or Wait only returns via ctx.
func (h *Handle) Wait(ctx context.Context) (Response, time.Duration, error) {
	h.mu.Lock()
	if h.done {
		resp, lat := h.resp, h.latency
		h.mu.Unlock()
		return resp, lat, nil
	}
	h.mu.Unlock()
	select {
	case <-h.doneCh:
		// Pass the baton so any other waiter also wakes.
		h.doneCh <- struct{}{}
	case <-ctx.Done():
		return Response{}, 0, ctx.Err()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.resp, h.latency, nil
}

// Cancel requests cancellation and reports whether it took effect. A
// still-queued request is cancelled immediately — routed to the shard
// that currently owns the model, so cancellation follows the request
// across migrations. A request still in transit to the controller is
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
	req, gen, model := h.req, h.reqGen, h.model
	cl := h.cl
	h.mu.Unlock()
	// CancelRequestGen mutates controller state: like every engine-side
	// call it must run on the engine goroutine (in live mode, via
	// Live.Do/Inject). The handle lock is released first — the
	// cancellation path schedules the response event that will re-enter
	// the completion callback. The generation check makes a cancel that
	// raced the response (and the request's recycling) a no-op.
	return cl.Ctls[cl.ownerOf(model, 0)].CancelRequestGen(req, gen)
}

// OnResponse implements ResponseSink: settle the handle, publish the
// completion token, then forward to the next sink — publishing first,
// so a next sink that hands the result to another goroutine never sees
// its own handle still pending.
func (h *Handle) OnResponse(resp Response, latency time.Duration) {
	h.mu.Lock()
	h.done = true
	if h.id == 0 {
		// The request never reported in via deliver (pre-cancelled or
		// unregistered mid-transit): the response carries the minted ID.
		h.id = resp.RequestID
	}
	// The controller-side request recycles the moment its response
	// fires; drop the reference so a post-completion Cancel is a pure
	// handle-local no-op.
	h.req, h.reqGen = nil, 0
	h.resp, h.latency = resp, latency
	next := h.next
	h.next = nil
	h.mu.Unlock()
	// The token send replaces close(): waiters baton-pass it.
	select {
	case h.doneCh <- struct{}{}:
	default:
	}
	if next != nil {
		next.OnResponse(resp, latency)
	}
}

// Submit issues one client request entered on shard local: the input
// travels that shard's client link, the submission timestamp reads that
// shard's clock, and sink (may be nil) receives the outcome once it is
// back at the client, where latency is measured and recorded. It is the
// one submission path — a *Handle is a sink, ResponseFunc adapts a
// closure, and nothing is allocated per request on the way down.
//
// The model must be registered at submission time (ErrUnknownModel
// otherwise); the owning shard is resolved when the request arrives at
// the control plane, so a model migrated mid-transit lands on its new
// shard, and one unregistered mid-transit fails the request rather than
// corrupting controller state. On a single-engine cluster local is only
// range-checked: every shard lives on one engine, and the request
// enters at the model's owner. With EnginePerShard the caller must be
// on local's engine goroutine (route with OwnerShardHint); if local
// does not own the model (a hint made stale by a migration), the
// request is forwarded once over the shard interconnect at the
// cross-shard network latency.
func (cl *Cluster) Submit(local int, spec SubmitSpec, sink ResponseSink) error {
	mi, err := cl.checkSpec(local, &spec)
	if err != nil {
		return err
	}
	if !cl.multiEngine() {
		local = mi.owner.shard
	}
	inputBytes := mi.zoo.InputBytes()
	if cl.cfg.ZeroLengthInputs {
		inputBytes = 0
	}
	s := submissionPool.Get().(*submission)
	s.cl, s.spec, s.zoo, s.sink = cl, spec, mi.zoo, sink
	s.local, s.sentAt = local, cl.engFor(local).Now()
	cl.clientLinks[cl.linkIdx(local)].AtoB.SendRun(inputBytes, s)
	return nil
}

// checkSpec validates a submission before any resource is acquired and
// resolves its model — the one time the request's name is looked up. The
// ID goes into the spec; each later hop reads the table by it.
func (cl *Cluster) checkSpec(local int, spec *SubmitSpec) (*ModelInfo, error) {
	if spec.Model == "" {
		return nil, fmt.Errorf("%w: empty model name", ErrInvalidRequest)
	}
	if spec.SLO <= 0 {
		return nil, fmt.Errorf("%w: non-positive SLO %v", ErrInvalidRequest, spec.SLO)
	}
	if spec.MaxBatch < 0 {
		return nil, fmt.Errorf("%w: negative batch cap %d", ErrInvalidRequest, spec.MaxBatch)
	}
	if local < 0 || local >= len(cl.Ctls) {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrNoSuchShard, local, len(cl.Ctls))
	}
	mi := cl.models.lookup(spec.Model)
	if mi == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, spec.Model)
	}
	spec.id = mi.id
	return mi, nil
}

// submission carries one request across its client-side network hops.
// It is the hops' preallocated event receiver (simclock.Runner): one
// struct serves the client→controller delivery, the cross-shard
// forward, and the response→client completion, so the per-request
// serving path schedules all of them without per-event closures. It is
// also the controller-side Responder, so the outcome comes back without
// a per-request func value. Submissions recycle through submissionPool
// at the end of complete(), the last instant anything references them.
type submission struct {
	cl     *Cluster
	spec   SubmitSpec
	zoo    *modelzoo.Model
	local  int // shard whose engine currently hosts this submission
	sentAt simclock.Time
	sink   ResponseSink

	resp  Response
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

// deliver runs at the controller side of the client link: resolve the
// owner (it may have changed while the input was on the wire), forward
// across shards if the owner lives on another engine, then submit.
func (s *submission) deliver() {
	cl := s.cl
	owner := cl.ownerOf(s.spec.id, s.local)
	if owner != s.local && cl.multiEngine() {
		// The owner lives on another engine: one hop over the shard
		// interconnect. The delivery instant is stamped on the sending
		// shard's clock; the destination clamps it forward if its own
		// clock is already past it (skew-bounded by the driver).
		if ci := cl.crossInject; ci != nil {
			at := cl.engFor(s.local).Now().Add(cl.cfg.NetLatency)
			prev := s.local
			s.local = owner
			if ci(owner, at, s) {
				return
			}
			// Driver stopped mid-forward: answer on the local shard,
			// where the model is unregistered — a deterministic failure
			// rather than a cross-engine race.
			s.local = prev
		}
		owner = s.local
	}
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
	s.local = owner
	ctl := cl.Ctls[owner]
	req := ctl.Submit(s.spec, s)
	if req != nil {
		if h != nil {
			h.mu.Lock()
			h.id, h.cl, h.model = req.ID, cl, s.spec.id
			h.req, h.reqGen = req, req.Gen()
			h.mu.Unlock()
		}
		// The controller-side Admitted hook already created the trace;
		// stamp the client-side send instant it cannot know.
		cl.flight.Shard(owner).Arrived(req.ID, s.sentAt.Duration())
	}
}

// Respond implements core.Responder: it receives the controller's
// terminal outcome and sends it back over the owning shard's client
// link.
func (s *submission) Respond(resp Response) {
	cl := s.cl
	// The responding controller is the model's current owner; follow it
	// (after a barrier-time migration the response must leave on the
	// adopting shard's link and engine).
	s.local = cl.ownerOf(resp.id, s.local)
	outBytes := s.zoo.OutputBytes()
	if !resp.Success {
		outBytes = 0
	}
	s.resp = resp
	s.phase = subComplete
	cl.clientLinks[cl.linkIdx(s.local)].BtoA.SendRun(outBytes, s)
}

// complete runs at the client side of the response hop: measure
// latency, record metrics, hand the outcome to the sink.
func (s *submission) complete() {
	cl := s.cl
	now := cl.engFor(s.local).Now()
	latency := now.Sub(s.sentAt)
	// Attribute the response to the shard that owned the model at
	// completion (it may have migrated since submission).
	shard := cl.ownerOf(s.resp.id, s.local)
	cl.Metrics.record(now, shard, s.resp, latency, s.spec.SLO)
	// Finalize the flight-recorder trace with the client-observed
	// outcome. The recorder shard is s.local — the engine this
	// completion runs on, which is where the trace's building state
	// lives (Move keeps it there across queued-request migrations).
	cl.flight.Shard(s.local).Completed(trace.Outcome{
		ID: s.resp.RequestID, Model: s.spec.Model, Tenant: s.spec.Tenant,
		Success: s.resp.Success, Reason: uint8(s.resp.Reason), ReasonStr: s.resp.Reason.String(),
		Batch: s.resp.Batch, ColdStart: s.resp.ColdStart,
		SLO: s.spec.SLO, Latency: latency,
	}, now.Duration())
	sink, resp := s.sink, s.resp
	*s = submission{}
	submissionPool.Put(s)
	if sink != nil {
		sink.OnResponse(resp, latency)
	}
}

// RunFor advances the cluster by d. Panics with EnginePerShard: a
// multi-engine cluster is live-only (its engines advance together only
// under the wall-clock driver's skew protocol).
func (cl *Cluster) RunFor(d time.Duration) {
	cl.checkSimulable()
	cl.Eng.RunFor(d)
}

// RunUntil advances the cluster to instant t. Panics with
// EnginePerShard (see RunFor).
func (cl *Cluster) RunUntil(t simclock.Time) {
	cl.checkSimulable()
	cl.Eng.RunUntil(t)
}

func (cl *Cluster) checkSimulable() {
	if cl.multiEngine() {
		panic("core: RunFor/RunUntil on an EnginePerShard cluster; drive it live (StartLive)")
	}
}
