package core

import (
	"time"

	"clockwork/internal/simclock"
)

// This file holds the seed's linear selection scans. They are reference
// implementations, not product code: the property tests assert the
// indexed paths pick the identical model on identical state, and the
// benchmarks measure the gap. Where the seed broke exact ties by Go map
// order, the oracles break them the way the indexes document — by
// registration sequence — so the comparison is on pointer identity.

// bestStrategyLinear is the seed's O(models-with-work) strategy scan:
// earliest required start, then registration sequence.
func (s *ClockworkScheduler) bestStrategyLinear(g *GPUMirror, now simclock.Time) (best *ModelInfo, batch int, earliest, requiredStart simclock.Time) {
	requiredStart = simclock.MaxTime
	for _, mi := range g.withWork {
		b, start, rs := s.c.inferCandidate(g, mi, now)
		if b == 0 {
			continue
		}
		if rs < requiredStart || (best != nil && rs == requiredStart && mi.seq < best.seq) {
			best, batch, earliest, requiredStart = mi, b, start, rs
		}
	}
	return best, batch, earliest, requiredStart
}

// rebuildAllocDemand recomputes ℓ_g from scratch over active models.
func rebuildAllocDemand(c *Controller) map[*GPUMirror]time.Duration {
	loads := make(map[*GPUMirror]time.Duration, len(c.GPUs()))
	for _, mi := range c.modelList {
		n := len(mi.residentOn)
		if mi.QueuedCount() == 0 || n == 0 || mi.demand <= 0 {
			continue
		}
		share := mi.demand / time.Duration(n)
		for _, g := range mi.residentOn {
			loads[g] += share
		}
	}
	return loads
}

// loadPriorityLinear is Appendix B's p_m computed against a from-scratch
// ℓ_g rebuild.
func loadPriorityLinear(cfg Config, mi *ModelInfo, loads map[*GPUMirror]time.Duration) time.Duration {
	p := mi.demand
	if n := len(mi.residentOn); n > 0 {
		share := mi.demand / time.Duration(n)
		for _, g := range mi.residentOn {
			l := loads[g]
			if l <= 0 {
				l = time.Nanosecond
			}
			p -= time.Duration(float64(share) * float64(cfg.LoadHorizon) / float64(l))
		}
	}
	return p
}

// bestLoadLinear is the seed's O(active models) scan with a per-call
// ℓ_g rebuild and the mirror's own residency test: highest positive
// priority, then highest demand, then registration sequence — the
// tie-break bestLoad documents.
func (s *ClockworkScheduler) bestLoadLinear(g *GPUMirror, now simclock.Time) *ModelInfo {
	if s.LoadSelection == LoadOldestFirst {
		return s.bestLoadOldestLinear(g, now)
	}
	cfg := s.c.Config()
	loads := rebuildAllocDemand(s.c)
	var best *ModelInfo
	var bestP time.Duration
	for _, mi := range s.c.modelList {
		if mi.QueuedCount() == 0 || mi.demand <= 0 {
			continue
		}
		if _, resident := g.Resident(mi); resident {
			continue
		}
		p := loadPriorityLinear(cfg, mi, loads)
		if p <= 0 {
			continue
		}
		if best == nil || p > bestP ||
			(p == bestP && (mi.demand > best.demand || (mi.demand == best.demand && mi.seq < best.seq))) {
			best, bestP = mi, p
		}
	}
	return best
}

// bestLoadOldestLinear is the seed's scan for the ablation policy.
func (s *ClockworkScheduler) bestLoadOldestLinear(g *GPUMirror, now simclock.Time) *ModelInfo {
	var best *ModelInfo
	bestDeadline := simclock.MaxTime
	for _, mi := range s.c.modelList {
		if _, resident := g.Resident(mi); mi.QueuedCount() == 0 || resident {
			continue
		}
		eta := simclock.Max(now, g.LoadFreeAt).Add(s.c.EstimateLoad(mi))
		if eta.Add(s.c.EstimateExec(mi, 1)) > mi.MaxDeadline() {
			continue
		}
		if dl := mi.MinDeadline(); dl < bestDeadline || (best != nil && dl == bestDeadline && mi.seq < best.seq) {
			bestDeadline = dl
			best = mi
		}
	}
	return best
}

// nextVictimLinear is the seed's materialise-and-scan LRU eviction pick.
func (s *ClockworkScheduler) nextVictimLinear(g *GPUMirror) *ModelInfo {
	keys := g.Pages.Keys() // MRU first
	for i := len(keys) - 1; i >= 0; i-- {
		id := keys[i]
		if out := g.peek(id); out.loading != 0 || out.infers > 0 {
			continue
		}
		if mi, ok := s.c.ModelByID(id); ok {
			return mi
		}
	}
	return nil
}
