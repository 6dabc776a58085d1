package clockwork

import (
	"fmt"
	"strings"

	"clockwork/internal/baseline"
	"clockwork/internal/core"
)

// Policy names one of the four serving policies the paper evaluates.
type Policy string

// Built-in policies: the paper's system and the two baselines of §6.1.
// The fourth, "clockwork-oldest-load", is the paper's system with naive
// LOAD selection; Policies lists all four.
const (
	PolicyClockwork Policy = "clockwork"
	PolicyClipper   Policy = "clipper"
	PolicyINFaaS    Policy = "infaas"
)

// policyClockworkOldestLoad is the LOAD-selection ablation: Clockwork
// choosing loads oldest-deadline-first instead of by Appendix B's
// demand priorities.
const policyClockworkOldestLoad Policy = "clockwork-oldest-load"

// Policies returns the names New accepts, sorted.
func Policies() []Policy {
	return []Policy{PolicyClipper, PolicyClockwork, policyClockworkOldestLoad, PolicyINFaaS}
}

// configure sets on cfg what policy p decides: which scheduler runs,
// whether admission control cancels doomed requests, and whether
// workers execute best-effort. The policies differ in nothing else
// (§6.1). An empty name is the paper's scheduler.
func (p Policy) configure(cfg *core.ClusterConfig) error {
	switch p {
	case "", PolicyClockwork:
		// The cluster's default scheduler is the paper's.
	case policyClockworkOldestLoad:
		cfg.NewScheduler = func() core.Scheduler {
			s := core.NewClockworkScheduler()
			s.LoadSelection = core.LoadOldestFirst
			return s
		}
	case PolicyClipper:
		// Per-model containers with AIMD batching and concurrent EXECs.
		cfg.NewScheduler = func() core.Scheduler { return baseline.NewClipper() }
		cfg.Controller.DisableAdmissionControl = true
		cfg.WorkerBestEffort = true
	case PolicyINFaaS:
		// Profiled variant selection and reactive replica scaling.
		cfg.NewScheduler = func() core.Scheduler { return baseline.NewINFaaS() }
		cfg.Controller.DisableAdmissionControl = true
	default:
		names := make([]string, 0, 4)
		for _, q := range Policies() {
			names = append(names, string(q))
		}
		return fmt.Errorf("%w: %q (policies: %s)", ErrUnknownPolicy, p, strings.Join(names, ", "))
	}
	return nil
}
