package core

import (
	"fmt"
	"testing"
	"time"

	"clockwork/internal/action"
	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
)

// nopSched lets benchmarks build controller state without a scheduler
// reacting to it.
type nopSched struct{}

func (nopSched) Attach(*Controller)     {}
func (nopSched) OnRequest(*Request)     {}
func (nopSched) OnResult(action.Result) {}
func (nopSched) OnCancel(*Request)      {}

// loadNow makes mi resident on g: a LOAD sent and its success ingested.
func loadNow(ctl *Controller, g *GPUMirror, mi *ModelInfo, now simclock.Time) {
	a := ctl.SendLoad(g, mi, now, now.Add(time.Second))
	ctl.HandleResult(action.Result{
		ActionID: a.ID, Type: action.Load, Status: action.Success,
		WorkerID: g.WorkerID, GPU: g.GPU, Model: mi.name,
		Duration:           a.ExpectedDuration,
		ExpectedDuration:   a.ExpectedDuration,
		ExpectedCompletion: a.ExpectedCompletion,
		Start:              a.Earliest, End: a.ExpectedCompletion,
	})
}

// benchState builds a controller with nModels active models (reqsPer
// queued requests each), the first `resident` of them GPU-resident, and
// a Clockwork scheduler attached for direct decision calls.
func benchState(nModels, resident, reqsPer int) (*ClockworkScheduler, *GPUMirror, simclock.Time) {
	eng := simclock.NewEngine()
	ctl := NewController(eng, Config{}, nopSched{})
	zoo := modelzoo.ResNet50()
	pageSize := int64(16 * 1024 * 1024)
	cacheBytes := int64(resident+8) * int64(zoo.Pages(pageSize)) * pageSize
	ctl.AddWorker(0, 1, cacheBytes, pageSize, func(*action.Action, int64) {})
	g := ctl.GPUs()[0]

	names := make([]string, nModels)
	for i := range names {
		names[i] = fmt.Sprintf("bench-m%d", i)
		ctl.RegisterModel(names[i], zoo)
	}
	now := eng.Now()
	for i := 0; i < resident; i++ {
		mi, _ := ctl.Model(names[i])
		loadNow(ctl, g, mi, now)
	}
	for _, n := range names {
		for j := 0; j < reqsPer; j++ {
			ctl.Submit(SubmitSpec{Model: n, SLO: 100 * time.Millisecond}, nil)
		}
	}
	s := NewClockworkScheduler()
	s.Attach(ctl)
	return s, g, eng.Now()
}

// spreadState builds the state benchState cannot: 16 GPUs and nModels
// active models, every one of them replicated on two GPUs (model i on
// GPUs i and i+1 mod 16) whose allocated demand stays under the load
// horizon, so every exact priority is ≤ 0, nothing is loadable and both
// load-candidate sets are empty — the steady state of a loaded multi-GPU
// cluster, in which a linear scan visits every active model to return
// nil. Returns the scheduler, the GPU to ask for, and a model that is
// not resident on it.
func spreadState(nModels int) (*ClockworkScheduler, *GPUMirror, *ModelInfo, simclock.Time) {
	const gpus = 16
	eng := simclock.NewEngine()
	ctl := NewController(eng, Config{}, nopSched{})
	zoo := modelzoo.ResNet50()
	pageSize := int64(16 * 1024 * 1024)
	perGPU := int64(2*nModels/gpus + 8)
	for w := 0; w < gpus; w++ {
		ctl.AddWorker(w, 1, perGPU*int64(zoo.Pages(pageSize))*pageSize, pageSize, func(*action.Action, int64) {})
	}
	now := eng.Now()
	for i := 0; i < nModels; i++ {
		name := fmt.Sprintf("bench-m%d", i)
		ctl.RegisterModel(name, zoo)
		mi, _ := ctl.Model(name)
		loadNow(ctl, ctl.GPUs()[i%gpus], mi, now)
		loadNow(ctl, ctl.GPUs()[(i+1)%gpus], mi, now)
		ctl.Submit(SubmitSpec{Model: name, SLO: 100 * time.Millisecond}, nil)
	}
	s := NewClockworkScheduler()
	s.Attach(ctl)
	g := ctl.GPUs()[0]
	other, _ := ctl.Model("bench-m5") // on GPUs 5 and 6
	if ctl.coldIdx.Len() != 0 || !other.residentOnGPU(ctl.GPUs()[5]) || other.residentOnGPU(g) {
		panic("spreadState: not the state it documents")
	}
	if ctl.flushLoadSigns(); len(ctl.posSet) != 0 {
		panic(fmt.Sprintf("spreadState: %d of %d models have a positive priority; shrink the state", len(ctl.posSet), nModels))
	}
	return s, g, other, eng.Now()
}

// BenchmarkSchedulerPass measures one scheduling decision — the strategy
// pick plus the load pick for one GPU — against the number of active
// models, for the indexed hot path and the seed's linear scans. The
// linear load scan rebuilds ℓ_g over every active model per call, which
// is the term that collapses at Fig 8 scale (thousands of models). The
// spread rows are the multi-GPU nothing-to-load state: "spread" asks
// again on unchanged state (the gate answers from its counters), and
// "spread-dirty" moves one model's demand before every pass, so the
// pass pays the flush of that model's two GPUs — what a request
// arriving costs the gate.
func BenchmarkSchedulerPass(b *testing.B) {
	for _, n := range []int{100, 400} {
		b.Run(fmt.Sprintf("spread-%d", n), func(b *testing.B) {
			s, g, _, now := spreadState(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.bestStrategy(g, now)
				s.bestLoad(g, now)
			}
		})
		b.Run(fmt.Sprintf("spread-dirty-%d", n), func(b *testing.B) {
			s, g, mi, now := spreadState(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nudgeDemand(s.c, mi, i)
				s.bestStrategy(g, now)
				s.bestLoad(g, now)
			}
		})
		b.Run(fmt.Sprintf("spread-linear-%d", n), func(b *testing.B) {
			s, g, _, now := spreadState(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.bestStrategyLinear(g, now)
				s.bestLoadLinear(g, now)
			}
		})
	}
	for _, n := range []int{100, 1000, 4000} {
		resident := 100
		if n < resident {
			resident = n
		}
		b.Run(fmt.Sprintf("indexed-%d", n), func(b *testing.B) {
			s, g, now := benchState(n, resident, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.bestStrategy(g, now)
				s.bestLoad(g, now)
			}
		})
		b.Run(fmt.Sprintf("linear-%d", n), func(b *testing.B) {
			s, g, now := benchState(n, resident, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.bestStrategyLinear(g, now)
				s.bestLoadLinear(g, now)
			}
		})
	}
}

// nudgeDemand moves mi's demand by ±2 ns (enough to move its two-way
// share) through the controller's own protocol: mutate, then reindex.
func nudgeDemand(c *Controller, mi *ModelInfo, i int) {
	if i%2 == 0 {
		mi.demand += 2
	} else {
		mi.demand -= 2
	}
	c.reindexModel(mi)
}

// BenchmarkReindexModel measures the incremental index-maintenance cost
// paid per controller event (the price of the fast pass).
func BenchmarkReindexModel(b *testing.B) {
	s, g, _ := benchState(1000, 100, 4)
	_ = g
	mi, _ := s.c.Model("bench-m50")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.c.reindexModel(mi)
	}
}
