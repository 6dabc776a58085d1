package clockwork

import (
	"fmt"
	"time"

	"clockwork/internal/core"
	"clockwork/internal/simclock"
)

// This file is the deterministic-replay surface of the public API: the
// hooks the journal package uses to (a) stamp live injections with
// their engine position and (b) re-execute a recorded run step-for-step
// through the simulator. The determinism argument: a single-engine
// System is a pure function of (seed, the sequence of injected
// closures, each closure's virtual instant and step position). The live
// recorder captures exactly that triple; Replay.Apply restores it —
// running internal events up to the recorded position, re-entering the
// closure ahead of same-instant ties, and verifying the engine landed
// where the recording says it did, so divergence is detected rather
// than silently accumulated. See ARCHITECTURE.md, "Durability &
// replay".

// EngineSteps returns the number of engine events executed so far —
// with Live pacing the system, call it only from inside an injected
// closure or an engine-side callback (like Now, it is an engine-side
// read). Together with Now it is the stamp the injection journal
// records per entry. With Config.EnginePerShard it reads shard 0's
// engine; journaling is a single-engine feature.
func (s *System) EngineSteps() uint64 { return s.cluster.Eng.Steps() }

// ZooOf returns the catalogue name a registered instance was created
// from — what a control-plane snapshot stores so recovery can
// re-register the instance. ok is false for unknown instances and for
// custom-compiled models (whose catalogue name does not resolve; they
// cannot be restored from a snapshot and are rejected at journal
// attach).
func (s *System) ZooOf(instance string) (string, bool) {
	return s.cluster.ZooNameOf(instance)
}

// ProfileEntry is one measured action-profile window of a model — the
// §5.3 rolling estimator state a snapshot carries so a restored
// control plane predicts like the one that crashed.
type ProfileEntry = core.ProfileEntry

// ExportModelProfile returns name's measured profile windows (empty
// for a model that has not executed yet). Engine-side read.
func (s *System) ExportModelProfile(name string) ([]ProfileEntry, error) {
	return s.cluster.ExportProfile(name)
}

// ImportModelProfile replays measured windows into name's estimators,
// on top of the catalogue seeds registration installed. Engine-side
// call; use it only while restoring a snapshot, before live traffic.
func (s *System) ImportModelProfile(name string, entries []ProfileEntry) error {
	return s.cluster.ImportProfile(name, entries)
}

// Replay drives a single-engine System one recorded injection at a
// time. It is the execution half of deterministic record/replay: the
// journal package decodes what to apply, Replay controls where in the
// event stream it lands. The System must not be live (no StartLive) —
// Replay owns the engine the way RunFor does.
type Replay struct {
	sys *System
}

// Replay returns the step-granular replay driver. It panics on an
// EnginePerShard system: bit-exact replay is a single-engine property,
// the same boundary RunFor enforces.
func (s *System) Replay() *Replay {
	if s.cluster.EnginePerShard() {
		panic("clockwork: Replay on an EnginePerShard system; journaling and replay are single-engine features")
	}
	return &Replay{sys: s}
}

// Steps returns the number of engine events executed so far.
func (r *Replay) Steps() uint64 { return r.sys.cluster.Eng.Steps() }

// StepTo executes internal events until exactly step events have run.
// It errors if the event queue drains first — the recording then claims
// activity this engine never produced, i.e. the journal and the system
// configuration do not match.
func (r *Replay) StepTo(step uint64) error {
	eng := r.sys.cluster.Eng
	if eng.Steps() > step {
		return fmt.Errorf("clockwork: replay already at step %d, past target %d", eng.Steps(), step)
	}
	for eng.Steps() < step {
		if !eng.Step() {
			return fmt.Errorf("clockwork: replay event queue drained at step %d (target %d): journal does not match this configuration", eng.Steps(), step)
		}
	}
	return nil
}

// Apply re-executes one recorded injection: internal events run up to
// step-1, fn enters the engine at virtual instant at — ahead of
// same-instant queued events, exactly where the live driver's transfer
// placed it — and executes as step number step. A landing mismatch
// (wrong step count or instant) is a detected divergence, not a silent
// drift. It panics on a nil fn.
func (r *Replay) Apply(step uint64, at time.Duration, fn func()) error {
	if fn == nil {
		panic("clockwork: replay Apply with nil fn")
	}
	if step == 0 {
		return fmt.Errorf("clockwork: replay record stamped at step 0 (stamps count the injection's own step)")
	}
	if err := r.StepTo(step - 1); err != nil {
		return err
	}
	eng := r.sys.cluster.Eng
	if now := eng.Now().Duration(); now > at {
		return fmt.Errorf("clockwork: replay clock %v already past recorded instant %v at step %d", now, at, step)
	}
	eng.ScheduleFront(simclock.Time(at), simclock.Func(fn))
	if !eng.Step() {
		return fmt.Errorf("clockwork: replay engine refused the injected step %d", step)
	}
	if got := eng.Steps(); got != step {
		return fmt.Errorf("clockwork: replay divergence: injection landed at step %d, recorded %d", got, step)
	}
	if now := eng.Now().Duration(); now != at {
		return fmt.Errorf("clockwork: replay divergence at step %d: clock %v, recorded %v", step, now, at)
	}
	return nil
}
