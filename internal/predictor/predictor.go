package predictor

import (
	"fmt"
	"time"

	"clockwork/internal/action"
	"clockwork/internal/telemetry"
)

// DefaultWindow is the paper's measurement window ("past 10 actions").
const DefaultWindow = 10

// Estimator tracks a rolling window of durations for one key.
type Estimator struct {
	window []time.Duration
	idx    int
	n      int
	seeded bool
	seed   time.Duration
	// est is the current prediction. Estimate is asked many times per
	// request and the window moves once per action, so the maximum is
	// taken when the window changes (Observe, Seed), not when it is read.
	est time.Duration
}

// NewEstimator returns an estimator over the given window size.
func NewEstimator(windowSize int) *Estimator {
	if windowSize <= 0 {
		panic("predictor: non-positive window")
	}
	return &Estimator{window: make([]time.Duration, windowSize)}
}

// Seed installs a profiling-derived initial estimate, used until real
// measurements arrive (Clockwork profiles each model at load time, §5.1).
// Measurements belong to what the seed profiled: seeding again with a
// different value — the key now names a different model — discards them,
// seeding again with the same value keeps them.
func (e *Estimator) Seed(d time.Duration) {
	if e.seeded && e.seed != d {
		e.idx, e.n = 0, 0
	}
	e.seeded = true
	e.seed = d
	e.est = e.estimate()
}

// Observe records a measured duration.
func (e *Estimator) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.window[e.idx] = d
	e.idx = (e.idx + 1) % len(e.window)
	if e.n < len(e.window) {
		e.n++
	}
	e.est = e.estimate()
}

// Count returns the number of measurements in the window.
func (e *Estimator) Count() int { return e.n }

// Export returns the window's measurements oldest-first — the order
// that, replayed through Observe, reconstructs the estimator exactly
// (snapshot/restore of the control plane rides this).
func (e *Estimator) Export() []time.Duration {
	out := make([]time.Duration, 0, e.n)
	start := 0
	if e.n == len(e.window) {
		start = e.idx
	}
	for i := 0; i < e.n; i++ {
		out = append(out, e.window[(start+i)%len(e.window)])
	}
	return out
}

// Estimate returns the current prediction: the maximum over the window
// (a p99-style upper estimate), or the profiling seed before any
// measurement, or 0 if neither exists.
func (e *Estimator) Estimate() time.Duration { return e.est }

func (e *Estimator) estimate() time.Duration {
	if e.n == 0 {
		if e.seeded {
			return e.seed
		}
		return 0
	}
	var max time.Duration
	for i := 0; i < e.n; i++ {
		if e.window[i] > max {
			max = e.window[i]
		}
	}
	// Until the window has filled, stay conservative: never estimate
	// below the profiling seed.
	if e.n < len(e.window) && e.seeded && e.seed > max {
		return e.seed
	}
	return max
}

// Op is the kind of action an estimator predicts, spelled as snapshots
// store it: INFER execution (per batch size) or LOAD weight transfer.
type Op string

// The two predicted operations.
const (
	Exec Op = "exec"
	Load Op = "load"
)

// Key identifies one of a model's estimators: the operation and, for
// Exec, the batch size (0 for Load).
type Key struct {
	Op    Op
	Batch int
}

// String implements fmt.Stringer.
func (k Key) String() string {
	if k.Batch > 0 {
		return fmt.Sprintf("%s/b%d", k.Op, k.Batch)
	}
	return string(k.Op)
}

// Profile is one controller's collection of estimators: a block per
// model, indexed by the model's dense ID, holding one estimator per
// compiled batch size and one for LOAD. A prediction is two slice
// indexations; nothing on that path hashes or compares a name.
type Profile struct {
	window int
	keys   []Key  // a block's layout: Exec by ascending batch, then Load
	slot   []int8 // batch size → index into a block; -1 = not compiled
	models [][]Estimator
}

// NewProfile returns an empty profile for models compiled at the given
// batch sizes (ascending), using the given window size per key.
func NewProfile(windowSize int, batches []int) *Profile {
	if windowSize <= 0 {
		windowSize = DefaultWindow
	}
	p := &Profile{window: windowSize}
	for i, b := range batches {
		for len(p.slot) <= b {
			p.slot = append(p.slot, -1)
		}
		p.slot[b] = int8(i)
		p.keys = append(p.keys, Key{Op: Exec, Batch: b})
	}
	p.keys = append(p.keys, Key{Op: Load})
	return p
}

// find returns model's estimator for k, nil when the model has no block
// yet or k is not a key of this profile.
func (p *Profile) find(model action.ModelID, k Key) *Estimator {
	if model < 0 || int(model) >= len(p.models) || p.models[model] == nil {
		return nil
	}
	block := p.models[model]
	switch k.Op {
	case Exec:
		if k.Batch >= 0 && k.Batch < len(p.slot) && p.slot[k.Batch] >= 0 {
			return &block[p.slot[k.Batch]]
		}
	case Load:
		return &block[len(block)-1]
	}
	return nil
}

// get is find that creates model's block on first use: one allocation
// for the estimators and one for their windows. The table of blocks
// grows to the highest ID this controller has profiled.
func (p *Profile) get(model action.ModelID, k Key) *Estimator {
	if p.models = action.Grow(p.models, model); p.models[model] == nil {
		block := make([]Estimator, len(p.keys))
		windows := make([]time.Duration, len(p.keys)*p.window)
		for i := range block {
			block[i].window = windows[i*p.window : (i+1)*p.window : (i+1)*p.window]
		}
		p.models[model] = block
	}
	return p.find(model, k)
}

// Seed installs a profiling-derived estimate for model's key k (see
// Estimator.Seed for what re-seeding does). Keys outside the profile's
// batch sizes are ignored, here and in Observe.
func (p *Profile) Seed(model action.ModelID, k Key, d time.Duration) {
	if e := p.get(model, k); e != nil {
		e.Seed(d)
	}
}

// Observe records a measurement for model's key k.
func (p *Profile) Observe(model action.ModelID, k Key, d time.Duration) {
	if e := p.get(model, k); e != nil {
		e.Observe(d)
	}
}

// Estimate returns the prediction for model's key k (0 when nothing is
// known).
func (p *Profile) Estimate(model action.ModelID, k Key) time.Duration {
	if e := p.find(model, k); e != nil {
		return e.est
	}
	return 0
}

// ExportKey returns the measured window of model's key k oldest-first
// (nil when untracked or unmeasured). The profiling seed is not
// exported: it re-derives from the model catalogue at registration.
func (p *Profile) ExportKey(model action.ModelID, k Key) []time.Duration {
	e := p.find(model, k)
	if e == nil || e.n == 0 {
		return nil
	}
	return e.Export()
}

// Keys returns every model's keys in (Op, Batch) order, so exports
// serialize deterministically.
func (p *Profile) Keys() []Key { return p.keys }

// ErrorTracker accumulates prediction-error telemetry for Fig 9:
// overpredictions (actual < predicted) and underpredictions
// (actual > predicted), for both action durations and completion times.
type ErrorTracker struct {
	Over  *telemetry.Histogram
	Under *telemetry.Histogram
}

// NewErrorTracker returns an empty tracker.
func NewErrorTracker() *ErrorTracker {
	return &ErrorTracker{Over: telemetry.NewHistogram(), Under: telemetry.NewHistogram()}
}

// Record files the signed error of one prediction.
func (t *ErrorTracker) Record(predicted, actual time.Duration) {
	if actual < predicted {
		t.Over.Observe(predicted - actual)
	} else {
		t.Under.Observe(actual - predicted)
	}
}

// Count returns the total number of recorded predictions.
func (t *ErrorTracker) Count() uint64 { return t.Over.Count() + t.Under.Count() }
