package core

import (
	"fmt"
	"time"
)

// This file is the cross-shard rebalancer. Consistent hashing spreads
// model *names* evenly across shards, but demand follows a heavy tail:
// a handful of hot models can concentrate most of the queued work on
// one shard while its siblings idle. The rebalancer runs periodically
// on the virtual clock (Shards > 1 only) and migrates whole models —
// queued requests included — from the hottest shard to the coldest
// until the skew drops below the configured factor.
//
// Every step is deterministic: shard demand sums are integer
// nanosecond totals, hot/cold selection breaks ties by lowest shard
// index, and the migrated model is chosen by descending the hot
// shard's demand-ordered index (registration-sequence tie-breaks), so
// two runs with equal seeds migrate the same models at the same
// instants.

// RebalanceOnce runs one rebalance pass immediately and returns the
// number of models migrated. The periodic rebalancer calls this every
// RebalanceInterval; tests and operators may call it directly (it is a
// no-op with one shard).
func (cl *Cluster) RebalanceOnce() int {
	if len(cl.Ctls) < 2 {
		return 0
	}
	moved := 0
	for moved < cl.cfg.MaxMigrations {
		hot, cold := cl.demandExtremes()
		if hot == cold {
			break
		}
		hotD := cl.Ctls[hot].TotalDemand()
		coldD := cl.Ctls[cold].TotalDemand()
		if float64(hotD) <= cl.cfg.RebalanceFactor*float64(coldD) {
			break // within tolerance
		}
		// Only migrate a model that strictly narrows the gap: moving
		// more demand than (hot−cold) would overshoot and ping-pong the
		// model between the two shards on alternating passes.
		name, _, ok := cl.Ctls[hot].HottestMigratable(hotD - coldD)
		if !ok {
			break // everything hot is in flight; retry next pass
		}
		if err := cl.MigrateModel(name, cold); err != nil {
			break
		}
		moved++
	}
	return moved
}

// demandExtremes returns the indexes of the hottest shard and of the
// coldest shard by total active demand, breaking ties toward the lower
// index. Shards without a single schedulable GPU (every worker drained
// or failed) are excluded as cold candidates: migrating demand onto
// dead capacity would strand the model's queue until admission control
// times it out. With no eligible target, cold == hot and the caller
// stops.
func (cl *Cluster) demandExtremes() (hot, cold int) {
	hotD, coldD := time.Duration(-1), time.Duration(-1)
	cold = -1
	for i, ctl := range cl.Ctls {
		d := ctl.TotalDemand()
		if hotD < 0 || d > hotD {
			hot, hotD = i, d
		}
		if ctl.SchedulableGPUs() == 0 {
			continue
		}
		if coldD < 0 || d < coldD {
			cold, coldD = i, d
		}
	}
	if cold < 0 {
		cold = hot
	}
	return hot, cold
}

// MigrateModel moves model ownership to shard toShard, carrying its
// queued requests across losslessly (no request is dropped, duplicated
// or answered twice) and unloading its GPU replicas from the old
// shard; the new shard's load-priority policy re-creates replicas as
// demand warrants. A model with in-flight actions is ErrModelBusy —
// run the clock and retry (the periodic rebalancer does exactly that).
func (cl *Cluster) MigrateModel(name string, toShard int) error {
	if toShard < 0 || toShard >= len(cl.Ctls) {
		return fmt.Errorf("%w: %d (have %d)", ErrNoSuchShard, toShard, len(cl.Ctls))
	}
	mi := cl.models.lookup(name)
	if mi == nil {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	from := mi.owner.shard
	if from == toShard {
		return nil
	}
	zoo, reqs, err := cl.Ctls[from].ExtractModel(name)
	if err != nil {
		return err
	}
	// Between extraction and adoption the name has no live registration;
	// adoption installs the new one before it runs any scheduler
	// callback, so anything resolving the owner from inside it (cancels,
	// responses) sees the new shard.
	cl.route.Store(name, toShard)
	cl.migrations++
	// Building flight-recorder traces follow their queued requests to
	// the adopting shard's recorder (migration already holds the
	// all-engines barrier this cross-shard write needs).
	if cl.flight != nil && len(reqs) > 0 {
		ids := make([]uint64, len(reqs))
		for i, r := range reqs {
			ids[i] = r.ID
		}
		cl.flight.Move(from, toShard, ids)
	}
	if err := cl.Ctls[toShard].AdoptModel(name, zoo, reqs); err != nil {
		// Adoption can only fail on a duplicate name within the target
		// controller, which the cluster-global registry rules out; a
		// failure here means control-plane state corruption.
		panic("core: MigrateModel adoption failed: " + err.Error())
	}
	return nil
}

// armRebalancer starts the periodic rebalance loop on the virtual
// clock. The loop re-arms itself after every pass, so the cadence is
// exactly RebalanceInterval regardless of how long each pass's
// migrations take in virtual time (they are instantaneous: migration
// is a control-plane operation, §5.1 — weights are already in every
// worker's host RAM).
func (cl *Cluster) armRebalancer() {
	cl.Eng.ScheduleRun(cl.Eng.Now().Add(cl.cfg.RebalanceInterval), (*rebalanceTick)(cl))
}

// rebalanceTick is the Cluster seen as its rebalance loop's Runner.
type rebalanceTick Cluster

func (t *rebalanceTick) Run() {
	cl := (*Cluster)(t)
	cl.RebalanceOnce()
	cl.armRebalancer()
}
