// Package autoscale is the closed-loop policy of the serving plane: it
// turns the signals the system already exposes (violation rate, p99
// headroom, admission sheds, queued demand) into the decisions the
// control plane already knows how to actuate (resize the admission
// window, add or drain workers). The controller is a
// pure state machine — Evaluate consumes one control period's signals
// and returns one Decision, with no clock reads and no randomness — so
// a decision made inside an injected closure is deterministic at its
// virtual instant, journalable as a single record, and bit-for-bit
// reproducible under replay. Step senses and decides one period —
// gather the signals, evaluate, pick the drain target — for the daemon
// and the simulated experiment alike, and returns a journal.Autoscale
// op that journal.Apply actuates. See ARCHITECTURE.md, "Closed-loop
// control".
package autoscale

import (
	"fmt"
	"time"
)

// Config bounds and paces the control loop. The zero value of every
// field selects the documented default; WithDefaults resolves them.
type Config struct {
	// Period is the control interval: signals are accumulated over one
	// period and Evaluate runs once at its end (default 1s of virtual
	// time).
	Period time.Duration

	// MinWindow/MaxWindow bound the admission window (MaxInFlight).
	// Defaults 8 and 4096. The window never leaves [MinWindow,
	// MaxWindow]: the loop cannot admit-collapse to zero or grow
	// unbounded.
	MinWindow int
	MaxWindow int

	// MinWorkers/MaxWorkers bound the active (non-drained, non-failed)
	// worker count. Defaults: MinWorkers 1, MaxWorkers 0 (no scaling —
	// the window loop alone runs). Worker scaling only engages when
	// MaxWorkers > MinWorkers.
	MinWorkers int
	MaxWorkers int

	// HighViolation is the violation-rate high watermark (default
	// 0.01): at or above it the window shrinks by shrinkFactor. The rate
	// here is engine-observed — violations among admitted requests;
	// sheds feed the reopen path instead (see Evaluate). Growth is only
	// considered at or below the low watermark, HighViolation/10.
	HighViolation float64

	// GrowStep is the additive window increase per sustained low period
	// (default max(1, window/8), resolved per decision when zero).
	GrowStep int

	// GrowSustain is the hysteresis on growth: that many consecutive
	// low periods must pass before the window grows (default 2).
	// Shrinking acts immediately — the asymmetry protects the SLO.
	GrowSustain int

	// WorkerSustain is the hysteresis on worker scaling: demand must
	// stay past a watermark for that many consecutive periods before a
	// worker is added or drained (default 3). Cooldown is the number of
	// periods after any worker action during which no further worker
	// action fires (default WorkerSustain), letting the last action's
	// effect reach the signals before the next is judged.
	WorkerSustain int
	Cooldown      int
}

const (
	// headroomFactor gates window growth on latency headroom: the
	// period's p99 must sit below headroomFactor × the period's
	// representative SLO. The bar must stay reachable for the slowest
	// model in the mix — a batch-8 ResNet whose bare execution sits at
	// 60% of the SLO can never show a p99 under half of it, and a gate
	// it cannot pass pins the window shut forever.
	headroomFactor = 0.8

	// shrinkFactor is the multiplicative window decrease on a high
	// period.
	shrinkFactor = 0.5

	// demandHigh and demandLow are per-GPU demand watermarks, as
	// fractions of one demand horizon of aggregate GPU time. The
	// horizon is the shorter of the control period and the period's
	// observed SLO: the scheduler proactively cancels work it cannot
	// serve by its deadline, so outstanding demand saturates near
	// SLO×GPUs no matter how overloaded the system is — a period-long
	// horizon would never see the high watermark. A system whose
	// demand exceeds demandHigh×GPUs×horizon is overcommitted, one
	// under demandLow×GPUs×horizon is idle.
	demandHigh = 0.75
	demandLow  = 0.20
)

// WithDefaults resolves every zero field to its documented default.
func (c Config) WithDefaults() Config {
	if c.Period <= 0 {
		c.Period = time.Second
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 8
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 4096
	}
	if c.MaxWindow < c.MinWindow {
		c.MaxWindow = c.MinWindow
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MaxWorkers < 0 {
		c.MaxWorkers = 0
	}
	if c.HighViolation <= 0 {
		c.HighViolation = 0.01
	}
	if c.GrowSustain <= 0 {
		c.GrowSustain = 2
	}
	if c.WorkerSustain <= 0 {
		c.WorkerSustain = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.WorkerSustain
	}
	return c
}

// Signals is one control period's observed state, gathered at a single
// virtual instant (inside an injected closure or under a barrier).
type Signals struct {
	// Completed is the number of responses delivered this period;
	// Violations of them failed or exceeded their SLO. Shed counts
	// admission-window rejections this period (they never reached the
	// engine, so Completed excludes them).
	Completed  uint64
	Violations uint64
	Shed       uint64

	// P99 is the period's client-observed p99 latency; SLO is the
	// period's representative (minimum observed) objective. Both zero
	// when Completed is 0.
	P99 time.Duration
	SLO time.Duration

	// Demand is the outstanding Appendix-B demand summed across
	// placement groups (GPU-time of queued work); SchedulableGPUs
	// counts enabled GPU mirrors.
	Demand          time.Duration
	SchedulableGPUs int

	// ActiveWorkers counts non-drained, non-failed workers. Window is
	// the admission window in force during the period (0 = unlimited).
	ActiveWorkers int
	Window        int
}

// Decision is one evaluation's actuation plan. The zero Decision (with
// Window echoing the input) means "hold everything".
type Decision struct {
	// Window is the admission window to run the next period with. It
	// always carries a concrete value (never 0-meaning-unlimited):
	// compare against the current window to see whether it moved.
	Window int
	// AddWorkers asks for that many AddWorker calls; DrainWorker asks
	// for one active worker to be drained (Step picks which — by
	// convention the highest-ID active worker, so the choice is
	// deterministic). At most one of the two is set.
	AddWorkers  int
	DrainWorker bool
	// Reason is a short human-readable cause ("shrink: violations
	// 3.1%", "add worker: demand 91%"), surfaced by the admin plane.
	Reason string
}

// Controller is the closed-loop decision engine. Not safe for
// concurrent use: evaluate it from one goroutine (the engine goroutine
// it is injected on).
type Controller struct {
	cfg Config

	lowStreak  int // consecutive low-violation periods (window growth gate)
	highStreak int // consecutive high-demand periods (worker add gate)
	idleStreak int // consecutive low-demand periods (worker drain gate)
	cooldown   int // periods left before the next worker action may fire
}

// New returns a controller with cfg's zero fields defaulted.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg.WithDefaults()}
}

// Config returns the resolved configuration.
func (c *Controller) Config() Config { return c.cfg }

// Evaluate consumes one period's signals and returns the actuation
// plan. Pure except for the controller's own hysteresis state.
func (c *Controller) Evaluate(s Signals) Decision {
	d := Decision{Window: c.ClampWindow(s.Window)}

	// ---- admission window (AIMD with asymmetric hysteresis) ----
	//
	// The window reasons over the engine-observed rate — violations
	// among requests that were admitted. Sheds are deliberately NOT in
	// it: a period that sheds while the admitted work runs with p99
	// headroom means the window is the bottleneck, not capacity, and
	// the right move is to grow, fast. Folding sheds into the shrink
	// signal deadlocks the loop: a pinched window sheds, the sheds
	// read as violations, the window never reopens — and the pinch
	// also starves the queue, so the demand signal below never asks
	// for workers either.
	rate := 0.0
	if s.Completed > 0 {
		rate = float64(s.Violations) / float64(s.Completed)
	}
	switch {
	case s.Completed > 0 && rate >= c.cfg.HighViolation:
		// Shrink immediately: every period above the watermark is SLO
		// damage already done.
		c.lowStreak = 0
		nw := c.ClampWindow(int(float64(d.Window) * shrinkFactor))
		if nw < d.Window {
			d.Window = nw
			d.Reason = fmt.Sprintf("shrink window: violation rate %.2f%%", 100*rate)
		}
	case rate <= c.cfg.HighViolation/10 && c.headroomIdle(s):
		// Grow only after GrowSustain consecutive quiet periods, and
		// only when the p99 shows real headroom — a quiet period at a
		// saturated p99 is luck, not capacity.
		c.lowStreak++
		if c.lowStreak >= c.cfg.GrowSustain {
			step := c.cfg.GrowStep
			if step <= 0 {
				step = d.Window / 8
				if step < 1 {
					step = 1
				}
			}
			if s.Shed > 0 && d.Window > step {
				// Healthy engine + sheds: the window itself is what is
				// violating SLOs. Additive growth would bleed sheds for
				// many periods; double instead (the multiplicative
				// half of AIMD runs in reverse here).
				step = d.Window
			}
			nw := c.ClampWindow(d.Window + step)
			if nw > d.Window {
				d.Window = nw
				if s.Shed > 0 {
					d.Reason = fmt.Sprintf("reopen window: %d shed with p99 %v under %.0f%% of SLO", s.Shed, s.P99, 100*headroomFactor)
				} else {
					d.Reason = fmt.Sprintf("grow window: violation rate %.2f%%, p99 %v under %.0f%% of SLO", 100*rate, s.P99, 100*headroomFactor)
				}
			}
			c.lowStreak = 0
		}
	default:
		c.lowStreak = 0
	}

	// ---- worker scaling (sustained demand watermarks) ----
	if c.cfg.MaxWorkers <= c.cfg.MinWorkers {
		return d
	}
	if c.cooldown > 0 {
		c.cooldown--
		return d
	}
	// Queued demand is the leading pressure signal, but the engine
	// violation rate joins it: under real overload the scheduler keeps
	// its queue short by cancelling past-deadline work (and a pinched
	// window keeps it short by shedding), so demand alone can read
	// deceptively low exactly when capacity is most needed. Sheds
	// without deep p99 headroom join it too — that is the state the
	// reopen path above refuses to touch (growing the window would only
	// convert sheds into violations), so unmet demand at the door with
	// a loaded engine is exactly "capacity is the bottleneck".
	util := c.demandUtil(s)
	shedFrac := 0.0
	if s.Completed+s.Shed > 0 {
		shedFrac = float64(s.Shed) / float64(s.Completed+s.Shed)
	}
	pressure := util >= demandHigh ||
		(s.Completed > 0 && rate >= c.cfg.HighViolation) ||
		(shedFrac >= c.cfg.HighViolation && !c.headroomIdle(s))
	switch {
	case pressure && s.ActiveWorkers < c.cfg.MaxWorkers:
		c.idleStreak = 0
		c.highStreak++
		if c.highStreak >= c.cfg.WorkerSustain {
			d.AddWorkers = 1
			d.Reason = appendReason(d.Reason, fmt.Sprintf("add worker: demand %.0f%% of capacity over %d periods", 100*util, c.highStreak))
			c.highStreak = 0
			c.cooldown = c.cfg.Cooldown
		}
	case util <= demandLow && s.ActiveWorkers > c.cfg.MinWorkers && rate <= c.cfg.HighViolation/10 && s.Shed == 0:
		// A shedding period never drains: low demand under a pinched
		// window is starvation, not idleness.
		c.highStreak = 0
		c.idleStreak++
		if c.idleStreak >= c.cfg.WorkerSustain {
			d.DrainWorker = true
			d.Reason = appendReason(d.Reason, fmt.Sprintf("drain worker: demand %.0f%% of capacity over %d periods", 100*util, c.idleStreak))
			c.idleStreak = 0
			c.cooldown = c.cfg.Cooldown
		}
	default:
		c.highStreak = 0
		c.idleStreak = 0
	}
	return d
}

// headroomIdle reports whether the period's p99 shows growth headroom.
// An idle period (nothing completed) has headroom only if nothing was
// shed either — all-shed periods must not feed growth.
func (c *Controller) headroomIdle(s Signals) bool {
	if s.Completed == 0 {
		return s.Shed == 0
	}
	if s.SLO <= 0 {
		return false
	}
	return float64(s.P99) < headroomFactor*float64(s.SLO)
}

// demandUtil normalises outstanding demand to fractions of one demand
// horizon (min(Period, SLO)) of aggregate GPU time — see the
// demandHigh doc for why the SLO bounds the horizon.
func (c *Controller) demandUtil(s Signals) float64 {
	if s.SchedulableGPUs <= 0 {
		return 0
	}
	horizon := c.cfg.Period
	if s.SLO > 0 && s.SLO < horizon {
		horizon = s.SLO
	}
	capacity := float64(horizon) * float64(s.SchedulableGPUs)
	return float64(s.Demand) / capacity
}

// ClampWindow bounds every window the loop runs with — at startup, an
// operator's pin, each Evaluate — into [MinWindow, MaxWindow]. w <= 0
// (unbounded) clamps to the ceiling: the loop needs a finite window.
func (c *Controller) ClampWindow(w int) int {
	if w <= 0 {
		return c.cfg.MaxWindow
	}
	if w < c.cfg.MinWindow {
		return c.cfg.MinWindow
	}
	if w > c.cfg.MaxWindow {
		return c.cfg.MaxWindow
	}
	return w
}

func appendReason(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}
