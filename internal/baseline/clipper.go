package baseline

import (
	"time"

	"clockwork/internal/action"
	"clockwork/internal/core"
	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
)

// Clipper approximates Clipper's serving layer [11]: per-model containers
// with their own queues and adaptive (AIMD) batch sizing that treats the
// SLO as an average latency target, placed statically round-robin, with
// lazy model loading.
type Clipper struct {
	c *core.Controller

	placement map[string]*core.GPUMirror
	nextGPU   int
	state     map[string]*clipperModel
}

type clipperModel struct {
	maxBatch    float64 // AIMD-adapted batch limit
	lastSLO     time.Duration
	outstanding int // in-flight INFER actions for this model
}

// NewClipper returns the Clipper-like scheduler.
func NewClipper() *Clipper {
	return &Clipper{
		placement: make(map[string]*core.GPUMirror),
		state:     make(map[string]*clipperModel),
	}
}

// Attach implements core.Scheduler.
func (s *Clipper) Attach(c *core.Controller) { s.c = c }

func (s *Clipper) modelState(name string) *clipperModel {
	st, ok := s.state[name]
	if !ok {
		st = &clipperModel{maxBatch: 1}
		s.state[name] = st
	}
	return st
}

// place statically assigns a model to a GPU round-robin on first use,
// re-placing it when its GPU has been drained or failed. Returns nil
// when no schedulable GPU remains.
func (s *Clipper) place(mi *core.ModelInfo) *core.GPUMirror {
	model := mi.Name()
	if g, ok := s.placement[model]; ok && !g.Disabled() {
		return g
	}
	gpus := enabledGPUs(s.c, mi)
	if len(gpus) == 0 {
		return nil
	}
	g := gpus[s.nextGPU%len(gpus)]
	s.nextGPU++
	s.placement[model] = g
	return g
}

// OnRequest implements core.Scheduler.
func (s *Clipper) OnRequest(r *core.Request) {
	mi := r.ModelInfo()
	st := s.modelState(r.Model)
	st.lastSLO = r.SLO
	g := s.place(mi)
	if g == nil {
		return
	}
	s.ensureLoaded(g, mi)
	s.pump(g, mi, st)
}

// OnResult implements core.Scheduler.
func (s *Clipper) OnResult(res action.Result) {
	mi, ok := s.c.ModelByID(res.ModelID)
	if !ok {
		return
	}
	st := s.modelState(res.Model)
	if res.Type == action.Infer {
		if st.outstanding > 0 {
			st.outstanding--
		}
		if res.Status.IsSuccess() && st.lastSLO > 0 {
			// AIMD: Clipper grows batch while the measured batch
			// latency stays under the target, and backs off
			// multiplicatively when it overshoots.
			if res.Duration > st.lastSLO*8/10 {
				st.maxBatch *= 0.8
				if st.maxBatch < 1 {
					st.maxBatch = 1
				}
			} else if st.maxBatch < modelzoo.MaxBatch {
				st.maxBatch += 0.25
			}
		}
	}
	g := s.place(mi)
	if g == nil {
		return
	}
	s.pump(g, mi, st)
}

// ensureLoaded lazily loads the model, evicting LRU victims if required
// (a reactive cold start: the first requests wait out the transfer).
func (s *Clipper) ensureLoaded(g *core.GPUMirror, mi *core.ModelInfo) {
	if _, resident := g.Resident(mi); resident {
		return
	}
	if !evictFor(s.c, g, mi) {
		return // cannot make room; requests will wait for a retry
	}
	now := s.c.Now()
	s.c.SendLoad(g, mi, now, simclock.MaxTime)
}

// pump keeps one batch in flight per model container.
func (s *Clipper) pump(g *core.GPUMirror, mi *core.ModelInfo, st *clipperModel) {
	for st.outstanding < 1 && mi.QueuedCount() > 0 {
		readyAt, resident := g.Resident(mi)
		if !resident {
			s.ensureLoaded(g, mi)
			if readyAt, resident = g.Resident(mi); !resident {
				return
			}
		}
		batch := compiledBatchAtMost(int(st.maxBatch))
		if batch > mi.QueuedCount() {
			batch = compiledBatchAtMost(mi.QueuedCount())
		}
		// Per-request batch caps bound the batch further.
		batch = compiledBatchAtMost(mi.CapBatch(batch))
		reqs := mi.PopBatch(batch)
		// The window opens when the (possibly in-flight) LOAD lands.
		earliest := simclock.Max(s.c.Now(), readyAt)
		s.c.SendInfer(g, mi, batch, reqs, earliest, simclock.MaxTime)
		st.outstanding++
	}
}

// compiledBatchAtMost returns the largest compiled batch size ≤ n (≥ 1).
func compiledBatchAtMost(n int) int {
	best := 1
	for _, b := range modelzoo.BatchSizes {
		if b <= n {
			best = b
		}
	}
	return best
}

// evictFor frees pages for mi on g by unloading LRU victims; shared by
// both baselines.
func evictFor(c *core.Controller, g *core.GPUMirror, mi *core.ModelInfo) bool {
	need := mi.Zoo().Pages(g.Pages.PageSize())
	if need > g.Pages.TotalPages() {
		return false
	}
	for g.Pages.FreePages() < need {
		var victim *core.ModelInfo
		keys := g.Pages.Keys()
		for i := len(keys) - 1; i >= 0 && victim == nil; i-- {
			vmi, ok := c.ModelByID(keys[i])
			if !ok {
				return false
			}
			if !g.IsLoading(vmi) && g.InFlight(vmi) == 0 {
				victim = vmi
			}
		}
		if victim == nil {
			return false
		}
		c.SendUnload(g, victim)
	}
	return true
}

// enabledGPUs returns the schedulable (non-drained, non-failed) GPU
// mirrors mi may be placed on (its placement group's, see
// core.Controller.PlacementGPUs), preserving controller order.
func enabledGPUs(c *core.Controller, mi *core.ModelInfo) []*core.GPUMirror {
	all := c.PlacementGPUs(mi)
	for i, g := range all {
		if g.Disabled() {
			// Rare path: copy-on-filter only once a GPU is disabled.
			live := make([]*core.GPUMirror, 0, len(all)-1)
			live = append(live, all[:i]...)
			for _, g2 := range all[i+1:] {
				if !g2.Disabled() {
					live = append(live, g2)
				}
			}
			return live
		}
	}
	return all
}
