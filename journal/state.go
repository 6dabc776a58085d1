package journal

import (
	"fmt"

	"clockwork"
)

// captureInto refreshes the live portions of st — the model registry
// with learned profiles, and worker lifecycle states —
// from sys. Engine-side: with a live driver pacing, call it only from
// inside an injected closure (Recorder.Snapshot does). The static
// portions (Config, Speed, MaxInFlight, Prior*) are the caller's.
func captureInto(sys *clockwork.System, st *State) error {
	models := sys.Models() // registration order — deterministic, and what BuildSystem re-registers in
	st.Models = st.Models[:0]
	for _, name := range models {
		zoo, ok := sys.ZooOf(name)
		if !ok {
			return fmt.Errorf("journal: model %q is not registered", name)
		}
		prof, err := sys.ExportModelProfile(name)
		if err != nil {
			return err
		}
		st.Models = append(st.Models, ModelState{Instance: name, Zoo: zoo, Profile: prof})
	}
	n := sys.Workers()
	st.Workers = st.Workers[:0]
	for id := 0; id < n; id++ {
		ws, err := sys.WorkerStateOf(id)
		if err != nil {
			return err
		}
		switch ws {
		case clockwork.WorkerDraining:
			st.Workers = append(st.Workers, workerDraining)
		case clockwork.WorkerFailed:
			st.Workers = append(st.Workers, workerFailed)
		default:
			st.Workers = append(st.Workers, workerActive)
		}
	}
	st.Step = sys.EngineSteps()
	st.VT = sys.Now()
	return nil
}

// BuildSystem constructs a System whose control plane matches st: the
// recorded configuration, the registry re-registered in recorded order
// with recorded profile windows, and workers restored to
// their lifecycle states. The procedure is deterministic — recovery and
// deterministic replay both run it, which is what makes a recovered
// epoch's genesis a valid replay base.
func BuildSystem(st *State) (*clockwork.System, error) {
	if st == nil {
		return nil, fmt.Errorf("journal: nil state")
	}
	sys, err := clockwork.New(st.Config)
	if err != nil {
		return nil, err
	}
	for _, m := range st.Models {
		if err := sys.RegisterModel(m.Instance, m.Zoo); err != nil {
			return nil, fmt.Errorf("journal: restore %q: %w", m.Instance, err)
		}
	}
	for _, m := range st.Models {
		if len(m.Profile) == 0 {
			continue
		}
		if err := sys.ImportModelProfile(m.Instance, m.Profile); err != nil {
			return nil, fmt.Errorf("journal: restore profile of %q: %w", m.Instance, err)
		}
	}
	for id := sys.Workers(); id < len(st.Workers); id++ {
		sys.AddWorker()
	}
	for id, ws := range st.Workers {
		var err error
		switch ws {
		case workerDraining:
			err = sys.DrainWorker(id)
		case workerFailed:
			err = sys.FailWorker(id)
		}
		if err != nil {
			return nil, fmt.Errorf("journal: restore worker %d state: %w", id, err)
		}
	}
	return sys, nil
}
