package experiments

import (
	"fmt"
	"strings"
	"time"

	"clockwork"
	"clockwork/internal/autoscale"
	"clockwork/internal/rng"
	"clockwork/internal/runner"
	"clockwork/internal/workload"
	"clockwork/journal"
	"clockwork/trace"
)

// The autoscale scenario judges the closed control loop against every
// static {workers, admission window} configuration in a sweep, under
// time-varying load — a diurnal cycle or a flash crowd — replayed
// bit-identically in every cell (the arrival instants and model picks
// are materialised once from the scenario seed). Each cell pays for
// the GPU-seconds it keeps active, sheds above its admission window
// (a shed counts as an SLO violation: the client got nothing by the
// deadline), and is scored on end-to-end violations. The claim under
// test: the closed loop violates less than every static cell while
// holding no more GPU-seconds — adaptation beats any fixed point of
// the {capacity, admission} trade-off when load moves.

// AutoscaleConfig parameterises the scenario.
type AutoscaleConfig struct {
	// Family picks the load shape: "diurnal" (one sharpened sinusoidal
	// day over the run) or "flash" (flat base with one ramped spike).
	Family string
	// Models is the registered instance count (zoo varieties cycled).
	Models int
	// GPUsPerWorker fixes the worker geometry (default 2).
	GPUsPerWorker int
	// SLO is every request's latency objective (default 100ms).
	SLO time.Duration
	// Duration is the arrival horizon of virtual time (default 5m;
	// cells run on until every admitted request has its outcome).
	Duration time.Duration
	// Period is the closed loop's control interval (default 1s).
	Period time.Duration
	// BaseRate is the envelope-1 arrival rate in r/s (default 150);
	// PeakMult the envelope's peak multiplier (default 12).
	BaseRate float64
	PeakMult float64
	// StaticWorkers × StaticWindows is the static sweep grid
	// (defaults {2, 3} × {64, 1024}).
	StaticWorkers []int
	StaticWindows []int
	// MinWorkers/MaxWorkers and MinWindow/MaxWindow bound the closed
	// loop (defaults 1/6 and 8/1024). The closed cell starts at
	// MinWorkers with the window at MaxWindow.
	MinWorkers int
	MaxWorkers int
	MinWindow  int
	MaxWindow  int
	Seed       uint64
	// FlightRecorder, when set, is called once per cell and the result
	// attached to that cell's system (cells run in parallel, so they
	// cannot share one recorder); a pure observer (see Fig5Config).
	FlightRecorder func() *trace.Recorder
}

func (c AutoscaleConfig) withDefaults() AutoscaleConfig {
	if c.Family == "" {
		c.Family = "diurnal"
	}
	if c.Models <= 0 {
		c.Models = 8
	}
	if c.GPUsPerWorker <= 0 {
		c.GPUsPerWorker = 2
	}
	if c.SLO <= 0 {
		c.SLO = 100 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Minute
	}
	if c.Period <= 0 {
		c.Period = time.Second
	}
	if c.BaseRate <= 0 {
		c.BaseRate = 400
	}
	if c.PeakMult <= 0 {
		c.PeakMult = 12
	}
	if len(c.StaticWorkers) == 0 {
		c.StaticWorkers = []int{2, 3}
	}
	if len(c.StaticWindows) == 0 {
		c.StaticWindows = []int{64, 1024}
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 6
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 8
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 1024
	}
	return c
}

// envelope resolves the family's rate shape.
func (c AutoscaleConfig) envelope() workload.Envelope {
	switch c.Family {
	case "flash":
		return workload.FlashCrowd(1, workload.Spike{
			Start: c.Duration * 4 / 10,
			Ramp:  c.Duration * 8 / 100,
			Hold:  c.Duration * 12 / 100,
			Mult:  c.PeakMult,
		})
	default:
		// Sharpness 6: a short rush hour over a long quiet baseline —
		// the regime where a static provision must choose between
		// paying for the peak all day and violating through it.
		return workload.Diurnal(c.Duration, 1, c.PeakMult, 6)
	}
}

// AutoscaleCell is one configuration's row.
type AutoscaleCell struct {
	Name string
	// StartWorkers/PeakWorkers bracket the cell's worker count over
	// the run (equal for static cells).
	StartWorkers int
	PeakWorkers  int
	// StartWindow/FinalWindow bracket the admission window (equal for
	// static cells; 0 = unbounded).
	StartWindow int
	FinalWindow int
	Arrivals    uint64
	// Shed counts arrivals refused at the admission window; Violations
	// is the end-to-end total: shed + failed + over-SLO responses.
	Shed          uint64
	Violations    uint64
	ViolationRate float64
	P99           time.Duration
	// GPUSeconds integrates active workers × GPUs over the cell's full
	// virtual run — the resource bill adaptation is judged against.
	GPUSeconds float64
}

// AutoscaleResult is the sweep comparison.
type AutoscaleResult struct {
	Config AutoscaleConfig
	// Cells lists the static grid in sweep order, then the closed loop
	// last.
	Cells []AutoscaleCell
}

// Closed returns the closed-loop cell.
func (r *AutoscaleResult) Closed() AutoscaleCell { return r.Cells[len(r.Cells)-1] }

// Static returns the static cells.
func (r *AutoscaleResult) Static() []AutoscaleCell { return r.Cells[:len(r.Cells)-1] }

type ascCellSpec struct {
	name    string
	workers int
	window  int
	closed  bool
}

// RunAutoscale runs the sweep: the arrival schedule and model picks
// are drawn once from the seed, then every cell replays them.
func RunAutoscale(cfg AutoscaleConfig) *AutoscaleResult {
	cfg = cfg.withDefaults()
	src := rng.NewSource(cfg.Seed)
	arrivals := workload.ArrivalSchedule(src.Stream("autoscale.arrivals"),
		cfg.BaseRate, cfg.PeakMult, cfg.envelope(), cfg.Duration)
	pick := src.Stream("autoscale.models")
	picks := make([]int, len(arrivals))
	for i := range picks {
		picks[i] = pick.Intn(cfg.Models)
	}

	var specs []ascCellSpec
	for _, w := range cfg.StaticWorkers {
		for _, win := range cfg.StaticWindows {
			specs = append(specs, ascCellSpec{
				name:    fmt.Sprintf("static w=%d win=%d", w, win),
				workers: w,
				window:  win,
			})
		}
	}
	specs = append(specs, ascCellSpec{name: "closed-loop", workers: cfg.MinWorkers, closed: true})

	return &AutoscaleResult{Config: cfg, Cells: runner.Map(specs, func(spec ascCellSpec) AutoscaleCell {
		return runAutoscaleCell(cfg, arrivals, picks, spec)
	})}
}

func runAutoscaleCell(cfg AutoscaleConfig, arrivals []time.Duration, picks []int, spec ascCellSpec) AutoscaleCell {
	sys, err := clockwork.New(clockwork.Config{
		Workers:         spec.workers,
		GPUsPerWorker:   cfg.GPUsPerWorker,
		Seed:            cfg.Seed,
		MetricsInterval: time.Minute,
	})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	if cfg.FlightRecorder != nil {
		sys.AttachFlightRecorder(cfg.FlightRecorder())
	}
	names := registerScaleModels(sys, cfg.Models)

	win := autoscale.NewWindow(spec.window, sys.FlightRecorder())

	// GPU-seconds integral: worker-seconds accumulated at every
	// membership change, folded with the GPU geometry at the end.
	active := spec.workers
	peak := active
	lastAt := time.Duration(0)
	workerSec := 0.0
	account := func() {
		now := sys.Now()
		workerSec += float64(active) * (now - lastAt).Seconds()
		lastAt = now
	}

	// The cell runs while arrivals are left (they were scheduled first,
	// so they precede a tick at the same instant) or admitted requests
	// await their outcomes.
	n := len(arrivals)
	running := func() bool { return n > 0 && sys.Now() < arrivals[n-1] || win.InFlight() > 0 }
	for i, at := range arrivals {
		model := names[picks[i]]
		sys.After(at, func() {
			if !win.Admit() {
				return
			}
			if _, err := sys.SubmitRequest(clockwork.Request{Model: model, SLO: cfg.SLO},
				func(clockwork.Result) { win.Release() }); err != nil {
				panic("experiments: " + err.Error())
			}
		})
	}

	if spec.closed {
		// autoscale.Step and journal.Apply are the sense → decide → act
		// body the daemon's tick runs, here at virtual instants instead
		// of wall ticks and with no journal. The experiment shortens the
		// hysteresis to one period: a spike is short, and the cooldown
		// still spaces worker actions out.
		ctl := autoscale.New(autoscale.Config{
			Period:      cfg.Period,
			MinWindow:   cfg.MinWindow,
			MaxWindow:   cfg.MaxWindow,
			MinWorkers:  cfg.MinWorkers,
			MaxWorkers:  cfg.MaxWorkers,
			GrowSustain: 1, WorkerSustain: 1, Cooldown: 1,
		})
		win.SetLimit(ctl.ClampWindow(0))
		var tick func()
		tick = func() {
			op, _ := autoscale.Step(sys, ctl, win.TakeShed(), win.Limit())
			_, _ = journal.Apply(sys, nil, op) // Step drains only an active worker: no error
			win.SetLimit(op.Window)
			if op.AddWorkers > 0 || op.Drain >= 0 {
				account()
				active = sys.ActiveWorkers()
				peak = max(peak, active)
			}
			if running() {
				sys.After(cfg.Period, tick)
			}
		}
		sys.After(cfg.Period, tick)
	}
	startWindow := win.Limit()

	for running() {
		sys.RunFor(time.Second)
	}
	account()

	sum := sys.Summary()
	cell := AutoscaleCell{
		Name:         spec.name,
		StartWorkers: spec.workers,
		PeakWorkers:  peak,
		StartWindow:  startWindow,
		FinalWindow:  win.Limit(),
		Arrivals:     uint64(len(arrivals)),
		Shed:         win.Shed(),
		Violations:   win.Shed() + sum.Failed + sum.SLOMisses,
		P99:          sum.P99,
		GPUSeconds:   workerSec * float64(cfg.GPUsPerWorker),
	}
	if cell.Arrivals > 0 {
		cell.ViolationRate = float64(cell.Violations) / float64(cell.Arrivals)
	}
	return cell
}

// String implements fmt.Stringer.
func (r *AutoscaleResult) String() string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b, "Closed-loop autoscaling — %s load, base %.0f r/s ×%.0f peak over %v, %d models, SLO %v, control period %v\n",
		c.Family, c.BaseRate, c.PeakMult, c.Duration, c.Models, c.SLO, c.Period)
	rows := make([][]string, 0, len(r.Cells))
	for _, cell := range r.Cells {
		rows = append(rows, []string{
			cell.Name,
			fmt.Sprintf("%d→%d", cell.StartWorkers, cell.PeakWorkers),
			fmt.Sprintf("%d→%d", cell.StartWindow, cell.FinalWindow),
			fmt.Sprintf("%d", cell.Arrivals),
			fmt.Sprintf("%d", cell.Shed),
			fmt.Sprintf("%d", cell.Violations),
			fmt.Sprintf("%.3f%%", 100*cell.ViolationRate),
			fmtMS(cell.P99),
			fmt.Sprintf("%.0f", cell.GPUSeconds),
		})
	}
	b.WriteString(table([]string{"cell", "workers", "window", "arrivals", "shed", "violations", "viol rate", "p99", "gpu-sec"}, rows))
	return b.String()
}
