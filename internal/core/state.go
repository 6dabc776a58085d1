package core

import (
	"fmt"
	"time"

	"clockwork/internal/predictor"
)

// This file is the control-plane state export/import surface the
// durable journal rides (see the top-level journal package). A snapshot
// must capture what cannot be re-derived from the model catalogue: the
// measured profile windows (the §5.3 rolling estimators). They travel
// through the controller's own registry, so a restored controller is
// indistinguishable from one that learned the profile live.

// ProfileEntry is one action key's measured window for a model:
// Op "exec" with a batch size, or Op "load" (Batch 0) — predictor.Op's
// spellings. Window is
// oldest-first, so replaying it through the profile's Observe
// reconstructs the estimator exactly.
type ProfileEntry struct {
	Op     string
	Batch  int
	Window []time.Duration
}

// ExportProfile returns model's measured profile windows in
// deterministic (Op, Batch) order. Models with no measurements yet
// export an empty slice — their estimators are fully re-derivable from
// the catalogue seed at registration.
func (c *Controller) ExportProfile(model string) []ProfileEntry {
	mi, ok := c.Model(model)
	if !ok {
		return nil
	}
	var out []ProfileEntry
	for _, k := range c.profile.Keys() {
		w := c.profile.ExportKey(mi.id, k)
		if len(w) == 0 {
			continue
		}
		out = append(out, ProfileEntry{Op: string(k.Op), Batch: k.Batch, Window: w})
	}
	return out
}

// ImportProfile replays measured windows into model's estimators, on
// top of the catalogue seeds RegisterModel installed. Call it after
// registration; unknown models are ignored (the entries carry their
// own keys, and observing for an unregistered model would create
// orphan estimators).
func (c *Controller) ImportProfile(model string, entries []ProfileEntry) {
	mi, ok := c.Model(model)
	if !ok {
		return
	}
	for _, e := range entries {
		for _, d := range e.Window {
			c.profile.Observe(mi.id, predictor.Key{Op: predictor.Op(e.Op), Batch: e.Batch}, d)
		}
	}
}

// ExportProfile is Controller.ExportProfile, with ErrUnknownModel for
// names not registered.
func (cl *Cluster) ExportProfile(model string) ([]ProfileEntry, error) {
	if cl.Ctl.tab.lookup(model) == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, model)
	}
	return cl.Ctl.ExportProfile(model), nil
}

// ImportProfile is Controller.ImportProfile, with ErrUnknownModel for
// names not registered.
func (cl *Cluster) ImportProfile(model string, entries []ProfileEntry) error {
	if cl.Ctl.tab.lookup(model) == nil {
		return fmt.Errorf("%w: %q", ErrUnknownModel, model)
	}
	cl.Ctl.ImportProfile(model, entries)
	return nil
}

// ZooNameOf returns the catalogue name behind a registered instance —
// what a snapshot stores so recovery can re-register the instance from
// the embedded catalogue. ok is false for unknown instances.
func (cl *Cluster) ZooNameOf(instance string) (string, bool) {
	mi := cl.Ctl.tab.lookup(instance)
	if mi == nil {
		return "", false
	}
	return mi.zoo.Name, true
}
