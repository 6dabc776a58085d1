package core

import (
	"hash/fnv"
	"time"
)

// This file holds the placement groups. ClusterConfig.Shards = N splits
// the controller's GPUs into N groups — a worker's GPUs join group
// (worker ID mod N) — and gives every model a group: FNV-1a of its name
// mod N. The Clockwork scheduler loads a model only onto GPUs of its own
// group, so each group's GPUs serve a stable slice of the models: their
// page caches hold fewer models, and hold them longer. One group is the
// paper's centralized controller exactly.
//
// A group whose GPUs are all drained or failed is stranded: its models
// may then be loaded onto any GPU, so a dead group never strands the
// demand for them. Replicas so placed stay where they are once the group
// has a GPU again, until eviction takes them. INFER, eviction, admission
// and unregistration therefore act on every GPU a model is resident on,
// in its group or not.
//
// The load candidates themselves live in one controller-wide index
// (index.go); a group keeps the counts that let the scheduler skip its
// GPUs when nothing in the group could load.
type placementGroup struct {
	// gpus lists the group's mirrors in the order they were added;
	// enabled counts those neither drained nor failed.
	gpus    []*GPUMirror
	enabled int

	// active counts the group's models with queued requests, the set
	// Appendix B's demand tracking works over. wakesLapsed is set when
	// the count rises from zero: while it was zero no LOAD wake was
	// armed on the group's GPUs, and the scheduler's next OnRequest for
	// one of its models re-arms them.
	active      int
	wakesLapsed bool

	// cold and pos count the group's models in the controller's cold
	// index and positive set (settleLoadSign keeps them).
	cold, pos int
}

// groupOf returns the placement group of the model named name among n:
// FNV-1a of the name mod n, a pure function of (name, n) and so
// independent of registration order and stable across runs.
func groupOf(name string, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum64() % uint64(n))
}

// setGroups splits the controller into n placement groups. The cluster
// calls it before adding any worker or model.
func (c *Controller) setGroups(n int) {
	c.groups = make([]placementGroup, n)
	c.stranded = n
}

// loadable reports whether the Clockwork scheduler may load mi onto g:
// g is in mi's group, or mi's group is stranded.
func (c *Controller) loadable(mi *ModelInfo, g *GPUMirror) bool {
	return mi.group == g.group || c.groups[mi.group].enabled == 0
}

// candidateCounts sums the active, cold and positive model counts over
// the groups whose models a GPU of group may load: group itself and
// every stranded group.
func (c *Controller) candidateCounts(group int) (active, cold, pos int) {
	grp := &c.groups[group]
	active, cold, pos = grp.active, grp.cold, grp.pos
	if c.stranded == 0 {
		return
	}
	for i := range c.groups {
		if o := &c.groups[i]; i != group && o.enabled == 0 {
			active += o.active
			cold += o.cold
			pos += o.pos
		}
	}
	return
}

// PlacementGPUs returns the GPUs mi may be loaded onto: those of its
// placement group or, while the group is stranded, every GPU. Drained
// and failed GPUs are included (check Disabled before scheduling onto
// one). With one group it is GPUs. Policies that place models
// themselves pick from it to keep the groups' rule.
func (c *Controller) PlacementGPUs(mi *ModelInfo) []*GPUMirror {
	if grp := &c.groups[mi.group]; grp.enabled > 0 {
		return grp.gpus
	}
	return c.gpus
}

// GroupDemand is one placement group's slice of the demand/capacity
// signal the closed-loop autoscaler consumes: outstanding Appendix-B
// demand (GPU-time of queued work) against enabled GPU mirrors.
type GroupDemand struct {
	Demand          time.Duration
	SchedulableGPUs int
}

// DemandSnapshot returns every placement group's demand/capacity pair,
// indexed by group. Engine-side read.
func (c *Controller) DemandSnapshot() []GroupDemand {
	out := make([]GroupDemand, len(c.groups))
	for _, mi := range c.modelList {
		if len(mi.queue) > 0 {
			out[mi.group].Demand += mi.demand
		}
	}
	for _, g := range c.gpus {
		if !g.disabled {
			out[g.group].SchedulableGPUs++
		}
	}
	return out
}
