package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"clockwork"
	"clockwork/internal/core"
	"clockwork/internal/modelzoo"
	"clockwork/internal/rng"
	"clockwork/internal/runner"
	"clockwork/internal/simclock"
	"clockwork/internal/workload"
)

// This file holds ablations of the design choices DESIGN.md calls out:
// scheduler lookahead, predictor window size, LOAD selection policy, and
// paged vs first-fit GPU memory allocation. (The serial-vs-concurrent
// EXEC ablation is Fig 2b itself.)

// AblationRow is one configuration's outcome under a common workload.
type AblationRow struct {
	Label     string
	Goodput   float64
	P99       time.Duration
	Max       time.Duration
	Rejected  uint64 // worker-cancelled actions' requests
	Cancelled uint64 // controller-cancelled requests
}

// AblationResult is a labelled sweep.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// String implements fmt.Stringer.
func (r *AblationResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label,
			fmt.Sprintf("%.0f", row.Goodput),
			fmtMS(row.P99), fmtMS(row.Max),
			fmt.Sprintf("%d", row.Rejected),
			fmt.Sprintf("%d", row.Cancelled),
		})
	}
	return fmt.Sprintf("Ablation — %s\n", r.Name) +
		table([]string{"config", "goodput r/s", "p99", "max", "rejected", "cancelled"}, rows)
}

// ablationWorkload runs a standard contended workload (8 ResNet50
// copies, 8 closed-loop clients each, 50ms SLO, one GPU) against a
// cluster and summarises it.
func ablationWorkload(label string, cl *core.Cluster, dur time.Duration) AblationRow {
	names, _ := cl.RegisterCopies("resnet50", modelzoo.ResNet50(), 8)
	stop := simclock.Time(dur)
	const slo = 50 * time.Millisecond
	for _, n := range names {
		workload.ClosedLoop(cl, n, slo, 8, stop, nil)
	}
	cl.RunUntil(stop.Add(time.Second))
	tot := cl.Metrics.Total
	return AblationRow{
		Label:     label,
		Goodput:   float64(cl.Metrics.Goodput.TotalCount()) / dur.Seconds(),
		P99:       cl.Metrics.LatencyAll.Percentile(99),
		Max:       cl.Metrics.LatencyAll.Max(),
		Rejected:  tot.Rejected + tot.TimedOut,
		Cancelled: tot.Cancelled,
	}
}

// RunAblationLookahead sweeps the controller's scheduling lookahead
// (§5.3 defaults to 5ms): too little starves the executors between
// wake-ups; much more commits work too early without improving goodput.
func RunAblationLookahead(dur time.Duration, seed uint64) *AblationResult {
	if dur <= 0 {
		dur = 10 * time.Second
	}
	sweep := []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	return &AblationResult{
		Name: "scheduler lookahead",
		Rows: runner.Map(sweep, func(la time.Duration) AblationRow {
			cl := newSystemCluster(clockwork.Config{
				Workers: 1, GPUsPerWorker: 1, Seed: seed, Lookahead: la,
			})
			return ablationWorkload(la.String(), cl, dur)
		}),
	}
}

// RunAblationPredictor sweeps the rolling profile window (§5.3 uses the
// past 10 actions). A window of 1 tracks the last sample only and
// underpredicts whenever noise spikes; a window of 100 adapts slowly.
func RunAblationPredictor(dur time.Duration, seed uint64) *AblationResult {
	if dur <= 0 {
		dur = 10 * time.Second
	}
	return &AblationResult{
		Name: "predictor window",
		Rows: runner.Map([]int{1, 10, 100}, func(w int) AblationRow {
			cl := newSystemCluster(clockwork.Config{
				Workers: 1, GPUsPerWorker: 1, Seed: seed, ProfileWindow: w,
			})
			return ablationWorkload(fmt.Sprintf("window=%d", w), cl, dur)
		}),
	}
}

// RunAblationLoadPolicy compares Appendix B's demand-priority LOAD
// selection against naive oldest-deadline-first selection under memory
// pressure (32 models on a cache that fits 10).
func RunAblationLoadPolicy(dur time.Duration, seed uint64) *AblationResult {
	if dur <= 0 {
		dur = 10 * time.Second
	}
	// The ablation variant is a policy of its own, so the sweep selects
	// both schedulers by name through the public API.
	policies := []string{SystemClockwork, "clockwork-oldest-load"}
	return &AblationResult{
		Name: "LOAD selection policy",
		Rows: runner.Map(policies, func(policy string) AblationRow {
			label := "priority (paper)"
			if policy != SystemClockwork {
				label = "oldest-first"
			}
			cl := newSystemCluster(clockwork.Config{
				Policy:  clockwork.Policy(policy),
				Workers: 1, GPUsPerWorker: 1, Seed: seed,
				PageCacheBytes: 10 * 7 * 16 * 1024 * 1024,
			})
			names, _ := cl.RegisterCopies("resnet50", modelzoo.ResNet50(), 32)
			src := rng.NewSource(seed)
			stop := simclock.Time(dur)
			const slo = 100 * time.Millisecond
			// Zipf-skewed open-loop load across 32 models at 600 r/s.
			stream := src.Stream("ablation.load")
			zipf := stream.Zipf(1.3, len(names))
			workload.OpenLoop(cl.Eng, stream, 600, stop, func() {
				cl.Submit(core.SubmitSpec{Model: names[zipf.Draw()], SLO: slo}, nil)
			})
			cl.RunUntil(stop.Add(time.Second))
			tot := cl.Metrics.Total
			return AblationRow{
				Label:     label,
				Goodput:   float64(cl.Metrics.Goodput.TotalCount()) / dur.Seconds(),
				P99:       cl.Metrics.LatencyAll.Percentile(99),
				Max:       cl.Metrics.LatencyAll.Max(),
				Rejected:  tot.Rejected + tot.TimedOut,
				Cancelled: tot.Cancelled,
			}
		}),
	}
}

// --- paging vs first-fit allocation ---

// firstFitAllocator is a byte-granular allocator over a contiguous
// address space, used only as the ablation counterfactual to the paper's
// 16MB paging: it suffers external fragmentation, so identical workloads
// hit allocation failures that paging provably cannot.
type firstFitAllocator struct {
	capacity int64
	// spans, sorted by offset.
	spans []span
}

type span struct {
	off, size int64
	key       string
}

func newFirstFit(capacity int64) *firstFitAllocator {
	return &firstFitAllocator{capacity: capacity}
}

func (a *firstFitAllocator) alloc(key string, size int64) bool {
	prevEnd := int64(0)
	for i, s := range a.spans {
		if s.off-prevEnd >= size {
			a.insert(i, span{off: prevEnd, size: size, key: key})
			return true
		}
		prevEnd = s.off + s.size
	}
	if a.capacity-prevEnd >= size {
		a.spans = append(a.spans, span{off: prevEnd, size: size, key: key})
		return true
	}
	return false
}

func (a *firstFitAllocator) insert(i int, s span) {
	a.spans = append(a.spans, span{})
	copy(a.spans[i+1:], a.spans[i:])
	a.spans[i] = s
}

func (a *firstFitAllocator) free(key string) bool {
	for i, s := range a.spans {
		if s.key == key {
			a.spans = append(a.spans[:i], a.spans[i+1:]...)
			return true
		}
	}
	return false
}

func (a *firstFitAllocator) used() int64 {
	var u int64
	for _, s := range a.spans {
		u += s.size
	}
	return u
}

// PagingRow is one allocator's failure behaviour under churn.
type PagingRow struct {
	Allocator    string
	Attempts     int
	Failures     int
	FailureRate  float64
	OccupancyPct float64 // mean occupancy at failure-free steady state
}

// PagingResult compares allocators.
type PagingResult struct {
	Rows []PagingRow
}

// RunAblationPaging subjects a 16MB-page cache and a first-fit byte
// allocator to the same random model load/unload churn at ~85% target
// occupancy and counts allocation failures. Paging trades a little
// internal fragmentation for zero external fragmentation — the property
// that lets the controller summarise memory as a single free-page count.
func RunAblationPaging(operations int, seed uint64) *PagingResult {
	if operations <= 0 {
		operations = 20_000
	}
	const capacity = int64(8) * 1024 * 1024 * 1024
	const pageSize = int64(16) * 1024 * 1024

	models := modelzoo.All()

	type resident struct {
		key string
		zoo *modelzoo.Model
	}
	run := func(usePaging bool) PagingRow {
		// Each allocator's churn sequence draws from its own stream so
		// the two scenarios are independent (and can run concurrently).
		stream := rng.NewSource(seed).Stream(fmt.Sprintf("ablation.paging.%v", usePaging))
		pageCache := newPagedCounter(capacity, pageSize)
		ff := newFirstFit(capacity)
		var live []resident
		attempts, failures := 0, 0
		var occSum float64
		occN := 0
		for op := 0; op < operations; op++ {
			// Target ~85% occupancy: load when below, randomly mix.
			var occupied int64
			if usePaging {
				occupied = pageCache.usedBytes()
			} else {
				occupied = ff.used()
			}
			occSum += float64(occupied) / float64(capacity)
			occN++
			loading := float64(occupied)/float64(capacity) < 0.85 || stream.Bernoulli(0.4)
			if loading {
				m := models[stream.Intn(len(models))]
				key := fmt.Sprintf("m%d", op)
				attempts++
				var ok bool
				if usePaging {
					ok = pageCache.alloc(key, m)
				} else {
					ok = ff.alloc(key, m.WeightsBytes())
				}
				if !ok {
					failures++
					// Evict one victim and retry once (as the real
					// system would UNLOAD).
					if len(live) > 0 {
						v := stream.Intn(len(live))
						if usePaging {
							pageCache.free(live[v].key)
						} else {
							ff.free(live[v].key)
						}
						live = append(live[:v], live[v+1:]...)
					}
					continue
				}
				live = append(live, resident{key: key, zoo: m})
			} else if len(live) > 0 {
				v := stream.Intn(len(live))
				if usePaging {
					pageCache.free(live[v].key)
				} else {
					ff.free(live[v].key)
				}
				live = append(live[:v], live[v+1:]...)
			}
		}
		name := "first-fit"
		if usePaging {
			name = "16MB paging"
		}
		return PagingRow{
			Allocator:    name,
			Attempts:     attempts,
			Failures:     failures,
			FailureRate:  float64(failures) / float64(attempts),
			OccupancyPct: 100 * occSum / float64(occN),
		}
	}
	return &PagingResult{Rows: runner.Map([]bool{true, false}, run)}
}

// pagedCounter is a minimal page-count allocator (the controller's view
// of PageCache) for the ablation.
type pagedCounter struct {
	pageSize  int64
	freePages int
	total     int
	held      map[string]int
}

func newPagedCounter(capacity, pageSize int64) *pagedCounter {
	total := int(capacity / pageSize)
	return &pagedCounter{pageSize: pageSize, freePages: total, total: total, held: map[string]int{}}
}

func (p *pagedCounter) alloc(key string, m *modelzoo.Model) bool {
	n := m.Pages(p.pageSize)
	if n > p.freePages {
		return false
	}
	p.freePages -= n
	p.held[key] = n
	return true
}

func (p *pagedCounter) free(key string) {
	p.freePages += p.held[key]
	delete(p.held, key)
}

func (p *pagedCounter) usedBytes() int64 {
	return int64(p.total-p.freePages) * p.pageSize
}

// String implements fmt.Stringer.
func (r *PagingResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	sort.Slice(r.Rows, func(i, j int) bool { return r.Rows[i].Allocator < r.Rows[j].Allocator })
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Allocator,
			fmt.Sprintf("%d", row.Attempts),
			fmt.Sprintf("%d", row.Failures),
			fmt.Sprintf("%.2f%%", 100*row.FailureRate),
			fmt.Sprintf("%.0f%%", row.OccupancyPct),
		})
	}
	var b strings.Builder
	b.WriteString("Ablation — paging vs first-fit allocation under churn\n")
	b.WriteString(table([]string{"allocator", "allocs", "failures", "failure rate", "mean occupancy"}, rows))
	return b.String()
}
