package worker

import (
	"fmt"
	"time"

	"clockwork/internal/action"
	"clockwork/internal/gpu"
	"clockwork/internal/memory"
	"clockwork/internal/modelzoo"
	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

// Config parameterises a worker on the paper's v100 memory geometry
// (32GB devices, 16MB pages, 512MB IOCache and Workspace).
type Config struct {
	ID   int
	GPUs int
	// PageCacheBytes, if > 0, overrides the derived page cache size
	// (device memory minus IOCache and Workspace).
	PageCacheBytes int64
	Noise          gpu.Noise

	// BestEffort switches the worker into the baseline mode the paper
	// compares against (§6.1): EXECs are submitted to the GPU
	// concurrently (thread-pool style) instead of one at a time, and
	// the workspace one-at-a-time invariant is waived. Used by the
	// Clipper-like baseline; Clockwork itself never sets this.
	BestEffort bool
}

// Default hardware parameters (Tesla v100, §6 testbed).
const (
	DefaultGPUs           = 2
	DefaultDeviceMemBytes = 32 * 1024 * 1024 * 1024
)

// Resolved fills unset fields with the paper's defaults and derives the
// page cache size. The cluster layer uses it to configure the
// controller's mirrors with exactly the worker's geometry.
func (c Config) Resolved() Config {
	if c.GPUs <= 0 {
		c.GPUs = DefaultGPUs
	}
	if c.PageCacheBytes <= 0 {
		c.PageCacheBytes = DefaultDeviceMemBytes - memory.DefaultIOCacheBytes - memory.DefaultWorkspaceBytes
	}
	return c
}

// Models is the set of model instances held in host RAM, indexed by
// dense ID (nil: not registered). Workers pre-load every registered model
// (§5.1), so the set is the same on all of them: a cluster keeps one
// Models and hands it to each worker it builds, and registering an
// instance is one write however many workers there are.
type Models struct{ zoo []*modelzoo.Model }

// Register places a model instance in host RAM under id (workers
// pre-load all models from disk on startup, §5.1).
func (ms *Models) Register(id action.ModelID, m *modelzoo.Model) {
	if m == nil {
		panic("worker: nil model")
	}
	ms.zoo = action.Grow(ms.zoo, id)
	ms.zoo[id] = m
}

// Unregister drops a model instance from host RAM (the control plane's
// UnregisterModel; GPU pages are reclaimed by UNLOAD actions).
func (ms *Models) Unregister(id action.ModelID) {
	if ms.Get(id) != nil {
		ms.zoo[id] = nil
	}
}

// Get returns the instance registered under id, nil when there is none.
func (ms *Models) Get(id action.ModelID) *modelzoo.Model {
	if id < 0 || int(id) >= len(ms.zoo) {
		return nil
	}
	return ms.zoo[id]
}

// Count returns the number of registered instances.
func (ms *Models) Count() int {
	n := 0
	for _, m := range ms.zoo {
		if m != nil {
			n++
		}
	}
	return n
}

// Worker is a predictable Clockwork worker process. All models are
// pre-loaded into host RAM (Models); GPU memory is managed as a page
// cache under exclusive controller direction.
type Worker struct {
	cfg    Config
	eng    *simclock.Engine
	gpus   []*GPU
	models *Models

	// OnResult receives every action result; the cluster layer wires it
	// to the controller's network link.
	OnResult func(action.Result)

	inferStates map[uint64]*inferState
	freeStates  []*inferState // recycled inferState nodes (engine-confined)
	failed      bool
}

// GPU bundles the per-device execution resources.
type GPU struct {
	Index int
	Dev   *gpu.Device
	// H2D carries weight transfers (LOAD); InputH2D carries inference
	// inputs on a separate DMA engine (v100s have multiple copy
	// engines, and Clockwork issues LOAD and INFER work on distinct
	// CUDA streams precisely so they do not queue behind each other —
	// §5.2: "each executor is bottlenecked by a different resource").
	H2D      *gpu.Link
	InputH2D *gpu.Link
	D2H      *gpu.Link // device→host: outputs
	Pages    *memory.PageCache
	IO       *memory.IOCache
	WS       *memory.Workspace

	loadExec  *executor
	inferExec *executor

	// The in-flight LOAD: loadExec runs one at a time, so its action and
	// start instant live here and the GPU itself is the weight
	// transfer's TransferRunner (as the Device is its EXEC's Runner).
	w         *Worker
	load      *action.Action
	loadStart simclock.Time

	// ready marks models (by ID) whose weights finished transferring;
	// pages may be allocated before the transfer completes, and an EXEC
	// that arrives in that gap is rejected rather than stalled. runLoad
	// grows it with the page allocation, so a model holding pages always
	// has a slot.
	ready []bool
}

// New constructs a worker on eng holding the models in host RAM. Random
// streams derive from src so every worker/GPU pair has independent
// deterministic noise.
func New(eng *simclock.Engine, src *rng.Source, cfg Config, models *Models) *Worker {
	cfg = cfg.Resolved()
	w := &Worker{
		cfg:         cfg,
		eng:         eng,
		models:      models,
		inferStates: make(map[uint64]*inferState),
	}
	for i := 0; i < cfg.GPUs; i++ {
		g := &GPU{
			w:        w,
			Index:    i,
			Dev:      gpu.NewDevice(eng, src.Stream(fmt.Sprintf("w%d.g%d.exec", cfg.ID, i)), cfg.Noise),
			H2D:      gpu.NewLink(eng, src.Stream(fmt.Sprintf("w%d.g%d.h2d", cfg.ID, i)), cfg.Noise),
			InputH2D: gpu.NewLink(eng, src.Stream(fmt.Sprintf("w%d.g%d.in", cfg.ID, i)), cfg.Noise),
			D2H:      gpu.NewLink(eng, src.Stream(fmt.Sprintf("w%d.g%d.d2h", cfg.ID, i)), cfg.Noise),
			Pages:    memory.NewPageCache(cfg.PageCacheBytes, memory.DefaultPageSize),
			IO:       memory.NewIOCache(memory.DefaultIOCacheBytes),
			WS:       memory.NewWorkspace(memory.DefaultWorkspaceBytes),
		}
		gi := g
		g.loadExec = newExecutor(eng, fmt.Sprintf("w%d.g%d.load", cfg.ID, i),
			func(a *action.Action, done func()) { w.runLoad(gi, a, done) },
			func(a *action.Action) { w.rejectAction(gi, a, action.RejectedLate) })
		g.inferExec = newExecutor(eng, fmt.Sprintf("w%d.g%d.infer", cfg.ID, i),
			func(a *action.Action, done func()) { w.runExec(gi, a, done) },
			func(a *action.Action) { w.rejectInfer(gi, a, action.RejectedLate) })
		w.gpus = append(w.gpus, g)
	}
	return w
}

// ID returns the worker's cluster-wide identifier.
func (w *Worker) ID() int { return w.cfg.ID }

// NumGPUs returns the number of devices.
func (w *Worker) NumGPUs() int { return len(w.gpus) }

// GPU returns device i for telemetry wiring.
func (w *Worker) GPU(i int) *GPU { return w.gpus[i] }

// Fail marks the worker failed: subsequently delivered actions are
// dropped on the floor, simulating a crashed worker process. Results of
// work already in progress may still be emitted; the controller drops
// them.
func (w *Worker) Fail() { w.failed = true }

// Models returns the host-RAM model set this worker serves from.
func (w *Worker) Models() *Models { return w.models }

// PageCapacity returns the page cache size (pages) of GPU i.
func (w *Worker) PageCapacity(i int) int { return w.gpus[i].Pages.TotalPages() }

// Submit delivers one action from the controller.
func (w *Worker) Submit(a *action.Action) {
	if w.failed {
		return
	}
	if a.GPU < 0 || a.GPU >= len(w.gpus) {
		panic(fmt.Sprintf("worker %d: action %v targets GPU %d of %d", w.cfg.ID, a, a.GPU, len(w.gpus)))
	}
	g := w.gpus[a.GPU]
	switch a.Type {
	case action.Load:
		g.loadExec.enqueue(a)
	case action.Unload:
		// UNLOAD only updates metadata and runs immediately (§5.2).
		w.runUnload(g, a)
	case action.Infer:
		w.admitInfer(g, a)
	default:
		panic(fmt.Sprintf("worker: unknown action type %v", a.Type))
	}
}

// emit fills the common result fields and hands the result to OnResult.
func (w *Worker) emit(g *GPU, a *action.Action, st action.Status, start, end simclock.Time, dur time.Duration) {
	r := action.Result{
		ActionID:           a.ID,
		Type:               a.Type,
		Status:             st,
		WorkerID:           w.cfg.ID,
		GPU:                g.Index,
		Model:              a.Model,
		ModelID:            a.ModelID,
		Batch:              a.Batch,
		RequestIDs:         a.RequestIDs,
		Start:              start,
		End:                end,
		Duration:           dur,
		ExpectedDuration:   a.ExpectedDuration,
		ExpectedCompletion: a.ExpectedCompletion,
	}
	if w.OnResult != nil {
		w.OnResult(r)
	}
}

func (w *Worker) rejectAction(g *GPU, a *action.Action, st action.Status) {
	w.emit(g, a, st, 0, 0, 0)
}

// ---- LOAD ----

func (w *Worker) runLoad(g *GPU, a *action.Action, done func()) {
	m := w.models.Get(a.ModelID)
	if m == nil {
		w.rejectAction(g, a, action.RejectedNotLoaded)
		done()
		return
	}
	if g.Pages.Has(a.ModelID) {
		w.rejectAction(g, a, action.RejectedAlreadyLoaded)
		done()
		return
	}
	pages := m.Pages(g.Pages.PageSize())
	if err := g.Pages.Alloc(a.ModelID, pages); err != nil {
		w.rejectAction(g, a, action.RejectedNoPages)
		done()
		return
	}
	g.ready = action.Grow(g.ready, a.ModelID)
	g.load, g.loadStart = a, w.eng.Now()
	g.H2D.TransferRun(m.Transfer(), g)
}

// TransferDone completes the in-flight LOAD once its weights have
// landed, then frees the LOAD executor's slot.
func (g *GPU) TransferDone(_, end simclock.Time, actual time.Duration) {
	a := g.load
	g.load = nil
	g.ready[a.ModelID] = true
	g.Pages.Touch(a.ModelID)
	g.w.emit(g, a, action.Success, g.loadStart, end, actual)
	g.loadExec.done()
}

// ---- UNLOAD ----

func (w *Worker) runUnload(g *GPU, a *action.Action) {
	if !g.Pages.Has(a.ModelID) {
		w.rejectAction(g, a, action.RejectedNotResident)
		return
	}
	if g.Pages.Pinned(a.ModelID) > 0 {
		w.rejectAction(g, a, action.RejectedBusy)
		return
	}
	if err := g.Pages.Free(a.ModelID); err != nil {
		w.rejectAction(g, a, action.RejectedBusy)
		return
	}
	g.ready[a.ModelID] = false
	now := w.eng.Now()
	w.emit(g, a, action.Success, now, now, 0)
}

// ---- INFER: INPUT / EXEC / OUTPUT ----

// inferState carries one INFER action across its asynchronous stages
// (INPUT copy, EXEC, OUTPUT copy) as a single pooled receiver: it is
// the gpu.TransferRunner for both copies and the gpu.ExecRunner for
// the kernel, so the whole pipeline schedules without a closure. States
// recycle through a per-worker free list (engine-confined, no locks);
// release happens only when no stage still holds a reference — on
// OUTPUT completion, or, for an action rejected while its INPUT copy
// was in flight, when that copy lands.
type inferState struct {
	w       *Worker
	g       *GPU
	a       *action.Action
	done    func() // executor slot release (preallocated per executor)
	ioBytes int64

	inputDone    bool
	inputPending bool // INPUT copy in flight; gates recycling on reject
	waiting      bool // window-approved EXEC stalled on the INPUT copy
	rejected     bool
	output       bool // OUTPUT copy in flight (distinguishes TransferDone calls)

	execStart  simclock.Time
	execEnd    simclock.Time
	execActual time.Duration
}

func (w *Worker) acquireInferState() *inferState {
	if n := len(w.freeStates); n > 0 {
		st := w.freeStates[n-1]
		w.freeStates = w.freeStates[:n-1]
		return st
	}
	return new(inferState)
}

func (w *Worker) releaseInferState(st *inferState) {
	*st = inferState{}
	w.freeStates = append(w.freeStates, st)
}

// TransferDone receives both copy completions: the INPUT stage while
// output is false, the OUTPUT stage after ExecDone flipped it. The two
// never overlap for one action — input completes before EXEC starts,
// output starts after it ends.
func (st *inferState) TransferDone(_, _ simclock.Time, _ time.Duration) {
	w, g, a := st.w, st.g, st.a
	if st.output {
		// OUTPUT landed: release IO, report, recycle.
		delete(w.inferStates, a.ID)
		if err := g.IO.Free(st.ioBytes); err != nil {
			panic(fmt.Sprintf("worker: io free: %v", err))
		}
		start, end, actual := st.execStart, st.execEnd, st.execActual
		w.releaseInferState(st)
		w.emit(g, a, action.Success, start, end, actual)
		return
	}
	st.inputPending = false
	if st.rejected {
		w.releaseInferState(st)
		return
	}
	st.inputDone = true
	if st.waiting {
		st.waiting = false
		w.execNow(st)
	}
}

// admitInfer performs the INPUT stage immediately on receipt (§5.2):
// reserve IO memory, start the input copy, enqueue the EXEC stage.
func (w *Worker) admitInfer(g *GPU, a *action.Action) {
	if w.models.Get(a.ModelID) == nil {
		w.rejectAction(g, a, action.RejectedNotLoaded)
		return
	}
	ioBytes := a.InputBytes + a.OutputBytes
	if err := g.IO.Alloc(ioBytes); err != nil {
		w.rejectAction(g, a, action.RejectedIO)
		return
	}
	st := w.acquireInferState()
	st.w, st.g, st.a = w, g, a
	st.ioBytes = ioBytes
	st.inputPending = true
	w.inferStates[a.ID] = st
	g.InputH2D.TransferBytesRun(a.InputBytes, st)
	g.inferExec.enqueue(a)
}

// rejectInfer cleans up the INPUT-stage resources of a cancelled INFER.
func (w *Worker) rejectInfer(g *GPU, a *action.Action, status action.Status) {
	if st, ok := w.inferStates[a.ID]; ok {
		st.rejected = true
		delete(w.inferStates, a.ID)
		if err := g.IO.Free(st.ioBytes); err != nil {
			panic(fmt.Sprintf("worker: io free: %v", err))
		}
		if !st.inputPending {
			// No stage holds a reference any more; with the copy still
			// in flight, its TransferDone recycles instead.
			w.releaseInferState(st)
		}
	}
	w.rejectAction(g, a, status)
}

// runExec is the EXEC stage: the only stage that occupies the GPU, run
// strictly one at a time.
func (w *Worker) runExec(g *GPU, a *action.Action, done func()) {
	st, ok := w.inferStates[a.ID]
	if !ok {
		w.rejectAction(g, a, action.RejectedIO)
		done()
		return
	}
	if !g.Pages.Has(a.ModelID) {
		w.rejectInfer(g, a, action.RejectedNotLoaded)
		done()
		return
	}
	if !g.ready[a.ModelID] {
		// Pages allocated but the LOAD transfer has not landed: this is
		// an error, not something to ride out (§4.2). Stalling here
		// would hold the executor hostage and cascade lateness into
		// unrelated requests; the controller's earliest ≥ load-ETA
		// scheduling makes this a rare misprediction.
		w.rejectInfer(g, a, action.RejectedNotLoaded)
		done()
		return
	}
	st.done = done
	if !st.inputDone {
		// Stall until the (tiny) input copy lands; the window was
		// already validated when the executor picked this action.
		st.waiting = true
		return
	}
	w.execNow(st)
}

func (w *Worker) execNow(st *inferState) {
	g, a, done := st.g, st.a, st.done
	if err := g.Pages.Pin(a.ModelID); err != nil {
		w.rejectInfer(g, a, action.RejectedNotLoaded)
		done()
		return
	}
	if !w.cfg.BestEffort {
		if err := g.WS.Acquire("infer"); err != nil {
			panic(fmt.Sprintf("worker: workspace, action %d: %v (one-at-a-time EXEC violated)", a.ID, err))
		}
	}
	g.Pages.Touch(a.ModelID)
	st.execStart = w.eng.Now()
	m := w.models.Get(a.ModelID)
	if w.cfg.BestEffort {
		// Baseline mode: hand the kernel to the hardware scheduler and
		// immediately accept the next action — the thread-pool design
		// whose tail behaviour Fig 2b quantifies. ExecDone skips the
		// slot release for this mode.
		g.Dev.Submit(m.ExecLatency(a.Batch), st.ExecDone)
		done()
		return
	}
	g.Dev.ExecRun(m.ExecLatency(a.Batch), st)
}

// ExecDone receives the kernel completion: release the workspace and
// pin, start the OUTPUT copy, and (in serial mode) free the executor —
// the GPU is free as soon as EXEC ends; OUTPUT overlaps the next EXEC
// (§4.4 "steps may coincide").
func (st *inferState) ExecDone(actual time.Duration) {
	w, g, a := st.w, st.g, st.a
	st.execEnd = w.eng.Now()
	st.execActual = actual
	if !w.cfg.BestEffort {
		if err := g.WS.Release(); err != nil {
			panic(fmt.Sprintf("worker: workspace release: %v", err))
		}
	}
	if err := g.Pages.Unpin(a.ModelID); err != nil {
		panic(fmt.Sprintf("worker: unpin: %v", err))
	}
	st.output = true
	g.D2H.TransferBytesRun(a.OutputBytes, st)
	if !w.cfg.BestEffort {
		st.done()
	}
}
