package core

import (
	"time"

	"clockwork/internal/action"
	"clockwork/internal/simclock"
)

// ClockworkScheduler is the paper's scheduler (§5.3, Appendix B):
//
//   - INFER: a single conceptual queue of strategies ordered by required
//     start time (deadline − estimated batch execution). Each pass keeps
//     every INFER executor supplied with at most Lookahead (5ms) of
//     work, choosing the most urgent (model, batch) pair whose largest
//     feasible batch fits its oldest request's deadline — larger batches
//     have earlier required start times and therefore win.
//   - LOAD: each LOAD executor is likewise kept Lookahead-full. Models
//     are ranked by load priority p_m = d_m − Σ_g a_{m,g}·capacity/ℓ_g
//     (unfulfilled demand); the highest positive-priority non-resident
//     model is loaded, evicting least-recently-used models as needed.
//   - Admission: the controller cancels requests in advance when their
//     SLO is provably unmeetable (Controller.Submit's last-chance timer),
//     so workers never burn cycles on fruitless work.
type ClockworkScheduler struct {
	c *Controller

	// LoadSelection switches between Appendix B's priority policy
	// (default) and the naive ablation policy. Set before first use.
	LoadSelection LoadPolicy
}

// gpuWake is the preallocated re-evaluation event for one GPU: armWake
// re-arms its embedded timer in Runner form, so the scheduler's wake
// path — hit on every pass over a saturated executor — never allocates
// a timer closure. One gpuWake lives per GPU, on its mirror.
type gpuWake struct {
	s   *ClockworkScheduler
	g   *GPUMirror
	tmr simclock.Timer
}

// Run implements simclock.Runner.
func (w *gpuWake) Run() { w.s.scheduleGPU(w.g) }

// LoadPolicy selects how the scheduler chooses LOAD targets.
type LoadPolicy uint8

// Load policies: the paper's demand-priority policy, and a naive
// oldest-deadline-first policy kept as an ablation baseline.
const (
	LoadByPriority LoadPolicy = iota
	LoadOldestFirst
)

// NewClockworkScheduler returns the paper's scheduler.
func NewClockworkScheduler() *ClockworkScheduler {
	return &ClockworkScheduler{}
}

// Attach implements Scheduler.
func (s *ClockworkScheduler) Attach(c *Controller) {
	s.c = c
	if s.LoadSelection == LoadOldestFirst {
		// The ablation policy selects by earliest queued deadline; have
		// the controller keep the deadline-ordered index for it.
		c.enableDeadlineIndex()
	}
}

// OnRequest implements Scheduler: new demand may enable an INFER on any
// GPU holding the model, or justify a LOAD anywhere. GPUs are visited
// in controller order, not replica-list order, so the dispatch for a
// multi-resident model does not depend on the order its LOADs happened
// to be issued in.
func (s *ClockworkScheduler) OnRequest(r *Request) {
	mi := r.mi
	for _, g := range s.c.GPUs() {
		if mi.residentOnGPU(g) {
			s.scheduleGPU(g)
			continue
		}
		// Cold or under-replicated demand: consider loads everywhere.
		// This loop still touches every GPU per request, but what it
		// pays per GPU is small: a saturated LOAD executor exits on the
		// lookahead check, and an idle one — the usual case under INFER-
		// bound load — asks bestLoad, whose nothing-to-load gate answers
		// in O(1) once the first call of the pass has flushed the GPUs
		// this request dirtied.
		s.scheduleLoads(g)
		s.armWake(g)
	}
}

// OnResult implements Scheduler: a result frees mirror capacity
// (completed LOAD) or signals drift; re-evaluate that GPU.
func (s *ClockworkScheduler) OnResult(res action.Result) {
	g := s.c.mirror(res.WorkerID, res.GPU)
	s.scheduleGPU(g)
}

// OnCancel implements Scheduler: cancelled demand never helps; no-op.
func (s *ClockworkScheduler) OnCancel(*Request) {}

func (s *ClockworkScheduler) scheduleGPU(g *GPUMirror) {
	s.scheduleInfers(g)
	s.scheduleLoads(g)
	s.armWake(g)
}

// scheduleInfers keeps g's INFER executor supplied with ≤ Lookahead of
// predicted work.
func (s *ClockworkScheduler) scheduleInfers(g *GPUMirror) {
	if g.disabled {
		return
	}
	cfg := s.c.Config()
	for {
		now := s.c.Now()
		if g.OutstandingExecWork(now) >= cfg.Lookahead {
			return
		}
		mi, batch, earliest, requiredStart := s.bestStrategy(g, now)
		if mi == nil {
			return
		}
		reqs := mi.PopBatch(batch)
		latest := requiredStart
		if latest < earliest {
			latest = earliest // guarded by feasibility; keep window sane
		}
		s.c.SendInfer(g, mi, batch, reqs, earliest, latest)
	}
}

// bestStrategy picks the most urgent feasible (model, batch) for g:
// among models with queued work resident on g, the largest batch that
// meets its oldest request's deadline, preferring the earliest required
// start time (Appendix B's strategy-queue order).
//
// It reads g's strategy heap instead of scanning every model with work.
// The heap's stored keys are lower bounds on each entry's current
// required start (see stratEntry), so popping proceeds: stale entries
// (stamp mismatch) are dropped, entries whose model has become
// infeasible are dropped (within a stamp epoch infeasibility is
// permanent — the start bound only grows — and every event that could
// restore feasibility bumps the stamp and pushes a fresh entry), and
// entries whose recomputed key grew are pushed back re-keyed. The first
// entry whose recomputed key equals its stored key is the global
// minimum, because every other stored key is a lower bound.
func (s *ClockworkScheduler) bestStrategy(g *GPUMirror, now simclock.Time) (best *ModelInfo, batch int, earliest, requiredStart simclock.Time) {
	for len(g.stratQ) > 0 {
		e := g.stratQ[0]
		mi := e.mi
		if e.stamp != mi.stamp || !g.withWork[mi] {
			g.stratQ.popTop()
			continue
		}
		b, start, rs := s.c.inferCandidate(g, mi, now)
		if b == 0 {
			g.stratQ.popTop() // infeasible until the next stamp bump
			continue
		}
		if rs != e.key {
			g.stratQ[0].key = rs
			g.stratQ.fixTop()
			continue
		}
		return mi, b, start, rs
	}
	return nil, 0, 0, simclock.MaxTime
}

// scheduleLoads keeps g's LOAD executor supplied with ≤ Lookahead of
// predicted transfer work, choosing models by Appendix B load priority.
func (s *ClockworkScheduler) scheduleLoads(g *GPUMirror) {
	if g.disabled {
		return
	}
	cfg := s.c.Config()
	for {
		now := s.c.Now()
		if g.OutstandingLoadWork(now) >= cfg.Lookahead {
			return
		}
		best := s.bestLoad(g, now)
		if best == nil {
			return
		}
		if !s.evictFor(g, best) {
			return // cannot free enough pages right now
		}
		earliest := simclock.Max(now, g.LoadFreeAt)
		latest := earliest.Add(cfg.Lookahead)
		s.c.SendLoad(g, best, earliest, latest)
	}
}

// bestLoad returns the non-resident model with the highest positive load
// priority whose LOAD would still be useful, or nil.
//
// Two stages. First the controller's nothing-to-load gate (index.go):
// if no active model has a positive priority anywhere — every one is
// replicated and its replicas' GPUs absorb its demand, the steady state
// of a loaded cluster — the answer is nil without visiting a model.
// The gate is exact — every active model's p_m ≤ 0 is an evaluation by
// the same loadPriority that is either current or proven to still hold
// — so it never changes a decision; it only skips walks that would have
// found nothing.
// Otherwise the demand-ordered index is descended: a model's priority
// p_m = d_m − Σ fulfilled is bounded above by its demand d_m, so once
// the next model's demand cannot exceed the best exact priority found,
// no later model can win and the descent stops. ℓ_g comes from the
// incrementally maintained per-GPU allocated demand rather than a
// per-call rebuild, and residency is read off the model's replica list.
func (s *ClockworkScheduler) bestLoad(g *GPUMirror, now simclock.Time) *ModelInfo {
	c := s.c
	if len(c.activeModels) == 0 {
		return nil
	}
	if s.LoadSelection == LoadOldestFirst {
		return s.bestLoadOldest(g, now)
	}
	if !c.anythingToLoad() {
		return nil
	}
	var best *ModelInfo
	var bestP time.Duration
	c.demandIdx.Scan(func(mi *ModelInfo) bool {
		if mi.demand <= 0 {
			return false // demand-descending: nothing below can qualify
		}
		if best != nil && mi.demand <= bestP {
			return false // upper bound: p_m ≤ d_m cannot beat bestP
		}
		if mi.residentOnGPU(g) {
			return true
		}
		if p := c.loadPriority(mi); p > 0 && (best == nil || p > bestP) {
			best, bestP = mi, p
		}
		return true
	})
	return best
}

// bestLoadOldest is the ablation load policy: load the not-yet-resident
// model whose oldest queued request has the earliest deadline, ignoring
// demand volume and existing replicas. It ascends the deadline-ordered
// index, so the first model passing the residency and usefulness filters
// is the answer. Attach enables the index; a scheduler whose
// LoadSelection was switched to LoadOldestFirst after Attach gets it
// built here, on first use.
func (s *ClockworkScheduler) bestLoadOldest(g *GPUMirror, now simclock.Time) *ModelInfo {
	s.c.enableDeadlineIndex()
	var best *ModelInfo
	s.c.deadlineIdx.Scan(func(mi *ModelInfo) bool {
		if mi.residentOnGPU(g) {
			return true
		}
		eta := simclock.Max(now, g.LoadFreeAt).Add(s.c.EstimateLoad(mi))
		if eta.Add(s.c.EstimateExec(mi, 1)) > mi.MaxDeadline() {
			return true
		}
		best = mi
		return false // deadline-ascending: first hit is the earliest
	})
	return best
}

// evictFor frees pages for mi on g using LRU (§5.3: UNLOAD selection is
// least-recently-used), skipping models that are loading or have
// in-flight INFERs. Reports whether enough pages are now free.
func (s *ClockworkScheduler) evictFor(g *GPUMirror, mi *ModelInfo) bool {
	need := mi.zoo.Pages(g.Pages.PageSize())
	if need > g.Pages.TotalPages() {
		return false
	}
	for g.Pages.FreePages() < need {
		victim := s.nextVictim(g)
		if victim == nil {
			return false
		}
		s.c.SendUnload(g, victim)
	}
	return true
}

// nextVictim returns the least-recently-used evictable model on g,
// walking the page cache's LRU list in place instead of materialising
// every resident key per eviction.
func (s *ClockworkScheduler) nextVictim(g *GPUMirror) *ModelInfo {
	var victim *ModelInfo
	g.Pages.ScanLRU(func(id ModelID) bool {
		if out := g.peek(id); out.loading != 0 || out.infers > 0 {
			return true
		}
		if mi, ok := s.c.ModelByID(id); ok {
			victim = mi
			return false
		}
		return true
	})
	return victim
}

// armWake schedules a re-evaluation for when g's saturated executors
// drop below the lookahead threshold again.
func (s *ClockworkScheduler) armWake(g *GPUMirror) {
	if g.disabled {
		return
	}
	cfg := s.c.Config()
	now := s.c.Now()
	wake := simclock.MaxTime
	if len(g.withWork) > 0 && g.OutstandingExecWork(now) >= cfg.Lookahead {
		wake = simclock.Min(wake, g.ExecFreeAt.Add(-cfg.Lookahead))
	}
	if len(s.c.activeModels) > 0 && g.OutstandingLoadWork(now) >= cfg.Lookahead {
		wake = simclock.Min(wake, g.LoadFreeAt.Add(-cfg.Lookahead))
	}
	if wake == simclock.MaxTime {
		return
	}
	// Never arm at or before the current instant: this pass already saw
	// the present state, and a same-instant wake would loop forever.
	if wake <= now {
		wake = now.Add(time.Nanosecond)
	}
	w := g.wake
	if w == nil {
		w = &gpuWake{s: s, g: g}
		g.wake = w
	}
	if w.tmr.Pending() && w.tmr.When() <= wake {
		return // an adequate wake is already armed
	}
	w.tmr.Stop()
	w.tmr = s.c.Engine().AtRun(wake, w)
}
