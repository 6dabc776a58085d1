package core

import (
	"fmt"
	"time"

	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
)

// This file holds the controller-side primitives of the sharded control
// plane. A sharded cluster runs N controllers ("shards") on one event
// engine; each shard owns a disjoint slice of the cluster's GPUs and a
// disjoint subset of its models, so every scheduling pass touches only
// 1/N of the state. The cluster layer (cluster.go) routes submissions
// and control-plane calls to the owning shard and periodically
// rebalances model ownership when per-shard demand skews; the
// primitives below make that migration lossless: a model moves between
// controllers with its queued requests intact — no request is lost,
// duplicated, or answered twice.

// modelBusy reports whether mi has an in-flight action whose result
// will still be honoured — a LOAD or INFER on a non-failed worker
// (draining workers keep their promises; failed workers' in-flight
// requests were already answered and their results are dropped).
func (c *Controller) modelBusy(mi *ModelInfo) bool {
	for _, g := range c.gpus {
		if c.workerByID[g.WorkerID].failed {
			continue
		}
		if g.IsLoading(mi) || g.InFlight(mi) > 0 {
			return true
		}
	}
	return false
}

// TotalDemand sums Appendix B demand (d_m) over this shard's active
// models — the skew signal the cross-shard rebalancer compares.
func (c *Controller) TotalDemand() time.Duration {
	var d time.Duration
	for _, mi := range c.modelList {
		if len(mi.queue) > 0 {
			d += mi.demand
		}
	}
	return d
}

// SchedulableGPUs counts this shard's enabled mirrors — the capacity
// signal that keeps the rebalancer from migrating models onto a shard
// whose workers are all drained or failed.
func (c *Controller) SchedulableGPUs() int {
	n := 0
	for _, g := range c.gpus {
		if !g.disabled {
			n++
		}
	}
	return n
}

// HottestMigratable returns the highest-demand active model that can
// migrate right now (no in-flight LOAD/INFER) with demand strictly
// below maxDemand. Selection is deterministic: one pass in registration
// order keeps the first of equal demands. It runs on the rebalancer's
// cold path only, so it scans rather than keeping an index.
func (c *Controller) HottestMigratable(maxDemand time.Duration) (name string, demand time.Duration, ok bool) {
	for _, mi := range c.modelList {
		if len(mi.queue) > 0 && mi.demand > demand && mi.demand < maxDemand && !c.modelBusy(mi) {
			name, demand, ok = mi.name, mi.demand, true
		}
	}
	return name, demand, ok
}

// ExtractModel detaches a model from this controller for migration to a
// sibling shard: its queued requests are removed without being
// answered (they travel with the model), admission timers are
// disarmed, GPU replicas are unloaded, and the registry entry is
// dropped. A model with in-flight actions is ErrModelBusy — the
// rebalancer skips it this cycle and retries later.
func (c *Controller) ExtractModel(name string) (*modelzoo.Model, []*Request, error) {
	mi, ok := c.Model(name)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if c.modelBusy(mi) {
		return nil, nil, fmt.Errorf("%w: %q", ErrModelBusy, name)
	}

	// The queue empties without responses: ownership of the requests
	// transfers to the adopting shard. Timers armed by this shard must
	// not fire on requests it no longer owns.
	reqs := append([]*Request(nil), mi.queue...)
	for _, r := range reqs {
		r.cancelTmr.Stop()
		r.cancelTmr = simclock.Timer{}
	}
	for i := range mi.queue {
		mi.queue[i] = nil
	}
	mi.queue = mi.queue[:0]
	mi.capped = 0
	mi.demand = 0
	if len(reqs) > 0 {
		c.noteQueueMaybeEmpty(mi)
	}

	// Evict every replica in deterministic GPU order; mirrors of
	// drained/failed workers were already detached from residency, but
	// drop any residue defensively.
	for _, g := range c.gpus {
		if !g.disabled && mi.residentOnGPU(g) {
			c.SendUnload(g, mi)
		}
	}
	mi.residentOn = nil

	c.reindexModel(mi)
	c.unlist(mi)
	return mi.zoo, reqs, nil
}

// AdoptModel completes a migration: it registers the model on this
// controller and re-enqueues the requests extracted from the previous
// owner, preserving their IDs, deadlines, priorities and arrival
// order. Execution estimates come from this controller's own profile:
// the rolling windows a shard learns stay with that shard, so a model it
// has never owned starts from the offline seeds, and one that migrates
// back finds the windows it left behind (registration re-seeds with the
// same values, which keeps them). Admission timers re-arm against these
// estimates, so a request whose last-chance instant already passed is
// cancelled promptly rather than lost.
func (c *Controller) AdoptModel(name string, zoo *modelzoo.Model, reqs []*Request) error {
	if err := c.RegisterModel(name, zoo); err != nil {
		return err
	}
	mi := c.tab.lookup(name)
	for _, r := range reqs {
		if r.state != stateQueued {
			continue // answered before the migration was decided
		}
		r.ctl, r.mi = c, mi // the request's armed timers now dispatch here
		r.execEst = c.EstimateExec(mi, 1)
		mi.enqueue(r)
		mi.demand += r.execEst
	}
	if len(mi.queue) > 0 {
		c.activate(mi)
	}
	c.reindexModel(mi)
	for _, r := range reqs {
		if r.state != stateQueued {
			continue
		}
		if !c.cfg.DisableAdmissionControl {
			r.cancelTmr = c.eng.AtRun(r.deadline.Add(-r.execEst), r)
		}
		c.schd.OnRequest(r)
	}
	return nil
}
