package baseline

import (
	"time"

	"clockwork/internal/action"
	"clockwork/internal/core"
	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
)

// INFaaS approximates INFaaS's model-less serving [48]: per-model
// "variant" selection (here: batch size whose profiled latency fits
// within half the SLO), reactive replica scaling when a model's queue
// grows, and work-conserving FIFO dispatch. Like Clipper it treats the
// SLO as a coarse reactive goal: no admission control, no deadline
// arithmetic, no proactive loading.
type INFaaS struct {
	c *core.Controller

	placement map[string][]*core.GPUMirror // replicas, in placement order
	nextGPU   int
	sloOf     map[string]time.Duration
	// outstanding counts in-flight INFER actions per GPU; dispatch keeps
	// each GPU's pipeline shallow but busy.
	outstanding map[*core.GPUMirror]int
	lastScale   map[string]simclock.Time
	work        []*core.ModelInfo // pump's copy of a GPU's work list
}

// Reactive knobs.
const (
	infaasPipelineDepth = 2
	// infaasScaleQueue is the queue length that triggers adding a
	// replica, and infaasScaleCooldown rate-limits scaling decisions —
	// the reactive lag that hurts INFaaS at tight SLOs.
	infaasScaleQueue    = 32
	infaasScaleCooldown = 2 * time.Second
)

// NewINFaaS returns the INFaaS-like scheduler.
func NewINFaaS() *INFaaS {
	return &INFaaS{
		placement:   make(map[string][]*core.GPUMirror),
		sloOf:       make(map[string]time.Duration),
		outstanding: make(map[*core.GPUMirror]int),
		lastScale:   make(map[string]simclock.Time),
	}
}

// Attach implements core.Scheduler.
func (s *INFaaS) Attach(c *core.Controller) { s.c = c }

// OnCancel implements core.Scheduler.
func (s *INFaaS) OnCancel(*core.Request) {}

// OnRequest implements core.Scheduler.
func (s *INFaaS) OnRequest(r *core.Request) {
	s.sloOf[r.Model] = r.SLO
	mi := r.ModelInfo()
	replicas := s.replicasOf(mi)
	s.maybeScale(mi)
	for _, g := range replicas {
		s.pump(g)
	}
}

// OnResult implements core.Scheduler.
func (s *INFaaS) OnResult(res action.Result) {
	g := s.c.GPUs()[0]
	for _, cand := range s.c.GPUs() {
		if cand.WorkerID == res.WorkerID && cand.GPU == res.GPU {
			g = cand
			break
		}
	}
	if res.Type == action.Infer && s.outstanding[g] > 0 {
		s.outstanding[g]--
	}
	s.pump(g)
}

// replicasOf returns (creating on first use) the model's replica set.
// Replicas on drained or failed GPUs are dropped; a model left with no
// live replica is re-placed on a schedulable GPU.
func (s *INFaaS) replicasOf(mi *core.ModelInfo) []*core.GPUMirror {
	if rs, ok := s.placement[mi.Name()]; ok {
		live := rs
		for _, g := range rs {
			if g.Disabled() {
				live = nil
				for _, g2 := range rs {
					if !g2.Disabled() {
						live = append(live, g2)
					}
				}
				break
			}
		}
		if len(live) > 0 {
			s.placement[mi.Name()] = live
			return live
		}
		delete(s.placement, mi.Name())
	}
	gpus := enabledGPUs(s.c)
	if len(gpus) == 0 {
		return nil
	}
	g := gpus[s.nextGPU%len(gpus)]
	s.nextGPU++
	s.placement[mi.Name()] = []*core.GPUMirror{g}
	s.ensureLoaded(g, mi)
	return s.placement[mi.Name()]
}

// maybeScale adds a replica when the queue has grown past the reactive
// threshold — with a cooldown, so bursts are chased rather than planned.
func (s *INFaaS) maybeScale(mi *core.ModelInfo) {
	if mi.QueuedCount() < infaasScaleQueue {
		return
	}
	now := s.c.Now()
	if last, ok := s.lastScale[mi.Name()]; ok && now.Sub(last) < infaasScaleCooldown {
		return
	}
	gpus := s.c.GPUs()
	if len(s.placement[mi.Name()]) >= len(gpus) {
		return
	}
	// Pick the GPU with the fewest outstanding actions not already
	// hosting the model.
	var best *core.GPUMirror
	for _, g := range gpus {
		if g.Disabled() {
			continue
		}
		if _, resident := g.Resident(mi); resident {
			continue
		}
		if best == nil || s.outstanding[g] < s.outstanding[best] {
			best = g
		}
	}
	if best == nil {
		return
	}
	s.lastScale[mi.Name()] = now
	s.placement[mi.Name()] = append(s.placement[mi.Name()], best)
	s.ensureLoaded(best, mi)
}

func (s *INFaaS) ensureLoaded(g *core.GPUMirror, mi *core.ModelInfo) {
	if _, resident := g.Resident(mi); resident {
		return
	}
	if !evictFor(s.c, g, mi) {
		return
	}
	s.c.SendLoad(g, mi, s.c.Now(), simclock.MaxTime)
}

// variantBatch picks the batch size whose profiled execution latency
// fits in half the SLO — INFaaS's variant selection, computed from
// profiles rather than live deadlines.
func (s *INFaaS) variantBatch(mi *core.ModelInfo) int {
	slo := s.sloOf[mi.Name()]
	if slo <= 0 {
		return modelzoo.MaxBatch
	}
	best := 1
	for _, b := range modelzoo.BatchSizes {
		if s.c.EstimateExec(mi, b) <= slo/2 {
			best = b
		}
	}
	return best
}

// pump dispatches FIFO work to g while its pipeline has room.
func (s *INFaaS) pump(g *core.GPUMirror) {
	if g.Disabled() {
		return
	}
	for s.outstanding[g] < infaasPipelineDepth {
		// Oldest-arrival-first across the models placed on g, with
		// request ID as the tie-break: closed-loop clients routinely
		// submit at the same instant, and without the tie-break this
		// pick would depend on the order of g's work list, which is a
		// history of swap-removes.
		var pick *core.ModelInfo
		var pickReady simclock.Time
		var pickID uint64
		var oldest simclock.Time = simclock.MaxTime
		s.work = g.ModelsWithWork(s.work)
		for _, mi := range s.work {
			r := mi.PeekOldest()
			if r == nil {
				continue
			}
			readyAt, resident := g.Resident(mi)
			if !resident {
				continue
			}
			if r.Arrival < oldest || (r.Arrival == oldest && (pick == nil || r.ID < pickID)) {
				oldest = r.Arrival
				pick = mi
				pickReady = readyAt
				pickID = r.ID
			}
		}
		if pick == nil {
			return
		}
		batch := s.variantBatch(pick)
		if batch > pick.QueuedCount() {
			batch = compiledBatchAtMost(pick.QueuedCount())
		}
		// Per-request batch caps bound the batch further.
		batch = compiledBatchAtMost(pick.CapBatch(batch))
		reqs := pick.PopBatch(batch)
		// The window opens when the (possibly in-flight) LOAD lands.
		earliest := simclock.Max(s.c.Now(), pickReady)
		s.c.SendInfer(g, pick, batch, reqs, earliest, simclock.MaxTime)
		s.outstanding[g]++
	}
}
