package autoscale

import (
	"time"

	"clockwork"
	"clockwork/journal"
)

// Step is the sense → decide body of both control loops, the daemon's
// tick and the autoscale experiment. On the engine goroutine (or under
// a Live.Do barrier) it gathers the period's signals from sys at one
// virtual instant, evaluates c and returns the decision as an op with
// its reason; the caller applies the op with journal.Apply. shed counts
// the period's admission-window rejections; window is the one in force.
func Step(sys *clockwork.System, c *Controller, shed uint64, window int) (journal.Autoscale, string) {
	rs := sys.DrainRecentStats()
	var demand time.Duration
	gpus := 0
	for _, sd := range sys.DemandSnapshot() {
		demand += sd.Demand
		gpus += sd.SchedulableGPUs
	}
	d := c.Evaluate(Signals{
		Completed:       rs.Completed,
		Violations:      rs.Violations,
		Shed:            shed,
		P99:             rs.P99,
		SLO:             rs.MinSLO,
		Demand:          demand,
		SchedulableGPUs: gpus,
		ActiveWorkers:   sys.ActiveWorkers(),
		Window:          window,
	})
	op := journal.Autoscale{Window: d.Window, AddWorkers: d.AddWorkers, Drain: -1}
	if d.DrainWorker {
		// The deterministic convention says which: the highest-ID active
		// worker. Evaluate never adds and drains in one decision, so
		// choosing before the adds is safe.
		for id := sys.Workers() - 1; id >= 0; id-- {
			if st, err := sys.WorkerStateOf(id); err == nil && st == clockwork.WorkerActive {
				op.Drain = id
				break
			}
		}
	}
	return op, d.Reason
}
