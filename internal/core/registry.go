package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// PolicySpec describes one pluggable serving policy: a scheduler
// factory plus the cluster-level switches the policy requires. The
// paper's system and its two baselines differ in exactly these three
// dimensions (§6.1): who decides, whether admission control runs, and
// whether workers execute best-effort.
type PolicySpec struct {
	// New returns a fresh Scheduler per system; it must not share
	// mutable state between instances.
	New func() Scheduler
	// DisableAdmissionControl turns off cancel-in-advance (baselines
	// treat the SLO as a soft goal and execute late requests).
	DisableAdmissionControl bool
	// BestEffortWorkers runs workers in the baseline thread-pool mode:
	// concurrent EXECs with the Fig 2b latency variability.
	BestEffortWorkers bool
	// Description is a one-line summary for listings.
	Description string
}

// The policy registry. Policies self-register from init functions
// (internal/baseline registers "clipper" and "infaas"); external
// schedulers plug in through the public clockwork.RegisterPolicy
// wrapper without touching New.
var (
	policyMu sync.RWMutex
	policies = make(map[string]PolicySpec)
)

// RegisterPolicy adds a named policy to the registry. Names are
// case-sensitive and must be unique; the factory must be non-nil.
func RegisterPolicy(name string, spec PolicySpec) error {
	if name == "" {
		return fmt.Errorf("%w: empty policy name", ErrInvalidRequest)
	}
	if spec.New == nil {
		return fmt.Errorf("%w: policy %q has a nil factory", ErrInvalidRequest, name)
	}
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := policies[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicatePolicy, name)
	}
	policies[name] = spec
	return nil
}

// MustRegisterPolicy is RegisterPolicy for init-time use; it panics on
// error (a duplicate registration at init time is a programming bug).
func MustRegisterPolicy(name string, spec PolicySpec) {
	if err := RegisterPolicy(name, spec); err != nil {
		panic("core: " + err.Error())
	}
}

// LookupPolicy returns the registered spec for name.
func LookupPolicy(name string) (PolicySpec, bool) {
	policyMu.RLock()
	defer policyMu.RUnlock()
	spec, ok := policies[name]
	return spec, ok
}

// Policies returns the registered policy names, sorted.
func Policies() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	names := make([]string, 0, len(policies))
	for name := range policies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DefaultPolicy is the policy an empty name resolves to.
const DefaultPolicy = "clockwork"

// ResolvePolicy maps a policy name ("" = DefaultPolicy) to its spec,
// with a descriptive error listing the alternatives on a miss.
func ResolvePolicy(name string) (PolicySpec, error) {
	if name == "" {
		name = DefaultPolicy
	}
	spec, ok := LookupPolicy(name)
	if !ok {
		return PolicySpec{}, fmt.Errorf("%w: %q (registered policies: %s)",
			ErrUnknownPolicy, name, strings.Join(Policies(), ", "))
	}
	return spec, nil
}

// NewClusterWithPolicy builds a cluster running the named policy: the
// registry supplies the scheduler factory and
// flips the policy's cluster-level switches on cfg. An empty name
// selects the paper's scheduler.
func NewClusterWithPolicy(policy string, cfg ClusterConfig) (*Cluster, error) {
	spec, err := ResolvePolicy(policy)
	if err != nil {
		return nil, err
	}
	cfg.NewScheduler = spec.New
	if spec.DisableAdmissionControl {
		cfg.Controller.DisableAdmissionControl = true
	}
	if spec.BestEffortWorkers {
		cfg.WorkerBestEffort = true
	}
	if err := cfg.withDefaults().validateShards(); err != nil {
		return nil, err
	}
	return NewCluster(cfg), nil
}

func init() {
	MustRegisterPolicy(DefaultPolicy, PolicySpec{
		New:         func() Scheduler { return NewClockworkScheduler() },
		Description: "the paper's scheduler (§5.3, Appendix B): deadline-aware batching, demand-priority loads, admission control",
	})
	MustRegisterPolicy("clockwork-oldest-load", PolicySpec{
		New: func() Scheduler {
			s := NewClockworkScheduler()
			s.LoadSelection = LoadOldestFirst
			return s
		},
		Description: "ablation: Clockwork with naive oldest-deadline-first LOAD selection instead of Appendix B priorities",
	})
}
