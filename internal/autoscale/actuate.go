package autoscale

import (
	"time"

	"clockwork"
)

// Actuation is one period's decision plus what of it was applied: the
// workers added, the ID of the worker drained (-1 for none) and whether
// a rebalance pass ran.
type Actuation struct {
	Decision
	Added      int
	Drained    int
	Rebalanced bool
}

// Step is the sense → decide → act body of both control loops, the
// daemon's tick and the autoscale experiment. On the engine goroutine
// (or under a Live.Do barrier) it gathers the period's signals from sys
// at one virtual instant, evaluates c and applies the worker and
// rebalance actions. shed counts the period's admission-window
// rejections and window is the window in force; the caller owns the
// admission gate and applies the returned Window itself.
func Step(sys *clockwork.System, c *Controller, shed uint64, window int) Actuation {
	rs := sys.DrainRecentStats()
	var demand time.Duration
	gpus := 0
	for _, sd := range sys.DemandSnapshot() {
		demand += sd.Demand
		gpus += sd.SchedulableGPUs
	}
	a := Actuation{
		Decision: c.Evaluate(Signals{
			Completed:       rs.Completed,
			Violations:      rs.Violations,
			Shed:            shed,
			P99:             rs.P99,
			SLO:             rs.MinSLO,
			Demand:          demand,
			SchedulableGPUs: gpus,
			ActiveWorkers:   sys.ActiveWorkers(),
			Window:          window,
		}),
		Drained: -1,
	}
	for a.Added < a.AddWorkers {
		sys.AddWorker()
		a.Added++
	}
	if a.DrainWorker {
		// The decision says "drain one"; the deterministic convention
		// says which: the highest-ID active worker. A journal records
		// the ID so replay drains the same one.
		for id := sys.Workers() - 1; id >= 0; id-- {
			if st, err := sys.WorkerStateOf(id); err == nil && st == clockwork.WorkerActive {
				if sys.DrainWorker(id) == nil {
					a.Drained = id
				}
				break
			}
		}
	}
	if a.Rebalance && (a.Added > 0 || a.Drained >= 0) {
		a.Rebalanced = true
		sys.Rebalance()
	}
	return a
}
