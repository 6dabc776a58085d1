package baseline

import "clockwork/internal/core"

// The baselines self-register with the policy registry, so the public
// API (and anything else resolving policies by name) picks them up
// without hard-wiring baseline constructors into New.
func init() {
	core.MustRegisterPolicy("clipper", core.PolicySpec{
		New:                     func() core.Scheduler { return NewClipper() },
		DisableAdmissionControl: true,
		BestEffortWorkers:       true,
		Description:             "Clipper-like baseline [11]: per-model containers, AIMD batching, static placement, concurrent EXECs",
	})
	core.MustRegisterPolicy("infaas", core.PolicySpec{
		New:                     func() core.Scheduler { return NewINFaaS() },
		DisableAdmissionControl: true,
		Description:             "INFaaS-like baseline [48]: profiled variant selection, reactive replica scaling, FIFO dispatch",
	})
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
