package core

import (
	"time"

	"clockwork/internal/action"
	"clockwork/internal/simclock"
	"clockwork/internal/telemetry"
	"clockwork/internal/worker"
)

// Metrics aggregates client-observed outcomes plus device utilisation —
// everything the paper's evaluation figures plot.
type Metrics struct {
	interval time.Duration

	// LatencyAll covers every request including failures (the paper's
	// CDFs include rejected requests); LatencyGood covers only
	// responses that succeeded within their SLO.
	LatencyAll  *telemetry.Histogram
	LatencyGood *telemetry.Histogram

	// Throughput counts all responses; Goodput counts only successes
	// within SLO (Fig 5/6/8).
	Throughput *telemetry.TimeSeries
	Goodput    *telemetry.TimeSeries

	// LatencySeries holds one histogram per interval for the per-minute
	// median/p99/max curves of Fig 8(b) and Fig 6(b).
	LatencySeries []*telemetry.Histogram

	// Batch tracks executed batch sizes per interval (Fig 8(c)).
	Batch *telemetry.TimeSeries

	// ColdStartThroughput counts successful cold-start responses
	// (Fig 8(e)); ColdModels counts distinct models with ≥1 cold start
	// per interval (Fig 8(d)).
	ColdStartThroughput *telemetry.TimeSeries
	coldModelSets       []coldSet

	// GPUUtil and PCIUtil integrate device busy time across all GPUs
	// (Fig 6(d,e)); NumGPUs normalises them to fractions.
	GPUUtil *telemetry.Utilization
	PCIUtil *telemetry.Utilization
	NumGPUs int

	// Total counts every client-observed outcome.
	Total Outcomes

	// perModel (by model ID) and perTenant break the same outcomes down
	// for the control plane's ModelStats/TenantStats, lazily allocated
	// on a model/tenant's first response. IDs are permanent per name,
	// so a model's counters survive unregistration and are found again
	// when the name comes back.
	perModel  []*modelOutcomes
	perTenant map[string]*Outcomes

	// recent* accumulate one control period's outcomes for the
	// closed-loop autoscaler: a single engine-confined consumer drains
	// and resets them each period via DrainRecent.
	recent        Outcomes
	recentLatency *telemetry.Histogram
	recentMinSLO  time.Duration
}

// RecentStats is one control period's slice of the client-observed
// outcomes — the autoscaler's signal set. Violations counts failures
// plus successes over their SLO; P99 is the period's latency p99 and
// MinSLO its tightest observed objective (both zero when Completed is).
type RecentStats struct {
	Completed  uint64
	Violations uint64
	P99        time.Duration
	MinSLO     time.Duration
}

// Outcomes counts client-observed outcomes. The metrics keep one
// ledger globally (Metrics.Total) and one per model and per tenant,
// all fed by the same add.
type Outcomes struct {
	Requests  uint64
	Succeeded uint64
	Failed    uint64
	// WithinSLO counts successes inside their SLO; SLOMisses counts
	// successes that exceeded it end-to-end.
	WithinSLO uint64
	SLOMisses uint64
	// ColdStarts counts responses whose request arrived with the model
	// not GPU-resident anywhere.
	ColdStarts uint64
	// Failure taxonomy (see Reason): Cancelled includes unregistered
	// models; WorkerLost counts requests whose in-flight work died with
	// a failed worker.
	Cancelled  uint64
	Rejected   uint64
	TimedOut   uint64
	WorkerLost uint64
}

// add counts one result against its request's SLO.
func (o *Outcomes) add(res Result, slo time.Duration) {
	o.Requests++
	if res.ColdStart {
		o.ColdStarts++
	}
	if res.Success {
		o.Succeeded++
		if res.Latency <= slo {
			o.WithinSLO++
		} else {
			o.SLOMisses++
		}
		return
	}
	o.Failed++
	switch res.Reason {
	case ReasonCancelled, ReasonUnregistered:
		o.Cancelled++
	case ReasonTimeout:
		o.TimedOut++
	case ReasonWorkerFailed:
		o.WorkerLost++
	default:
		o.Rejected++
	}
}

// coldSet is the set of model IDs seen cold in one interval, sized to
// the highest of them, and its count.
type coldSet struct {
	seen []bool
	n    int
}

func (s *coldSet) add(id ModelID) {
	if s.seen = action.Grow(s.seen, id); !s.seen[id] {
		s.seen[id] = true
		s.n++
	}
}

// modelOutcomes is one model's ledger plus its latency distribution.
type modelOutcomes struct {
	Outcomes
	latency *telemetry.Histogram
}

// ModelStats is the per-model slice of the metrics, exposed through the
// runtime control plane.
type ModelStats struct {
	Outcomes
	// Client-observed latency over all of the model's requests.
	P50, P99, Max time.Duration
	// GoodputMean is within-SLO responses per second of elapsed run.
	GoodputMean float64
}

func newMetrics(interval time.Duration) *Metrics {
	return &Metrics{
		interval:            interval,
		LatencyAll:          telemetry.NewHistogram(),
		LatencyGood:         telemetry.NewHistogram(),
		Throughput:          telemetry.NewTimeSeries(interval),
		Goodput:             telemetry.NewTimeSeries(interval),
		Batch:               telemetry.NewTimeSeries(interval),
		ColdStartThroughput: telemetry.NewTimeSeries(interval),
		GPUUtil:             telemetry.NewUtilization(interval),
		PCIUtil:             telemetry.NewUtilization(interval),
		perTenant:           make(map[string]*Outcomes),
		recentLatency:       telemetry.NewHistogram(),
	}
}

// DrainRecent returns the outcomes accumulated since the previous
// drain and resets the period accumulators. Engine-side: call it from
// one consumer only, on the engine goroutine.
func (m *Metrics) DrainRecent() RecentStats {
	st := RecentStats{
		Completed:  m.recent.Requests,
		Violations: m.recent.Failed + m.recent.SLOMisses,
		P99:        m.recentLatency.Percentile(99),
		MinSLO:     m.recentMinSLO,
	}
	m.recent = Outcomes{}
	m.recentLatency = telemetry.NewHistogram()
	m.recentMinSLO = 0
	return st
}

// Interval returns the bucket width shared by all series.
func (m *Metrics) Interval() time.Duration { return m.interval }

func (m *Metrics) attachGPUs(w *worker.Worker) {
	for i := 0; i < w.NumGPUs(); i++ {
		g := w.GPU(i)
		prevDev := g.Dev.OnBusy
		g.Dev.OnBusy = func(from, to simclock.Time) {
			if prevDev != nil {
				prevDev(from, to)
			}
			m.GPUUtil.AddBusy(from, to)
		}
		prevH2D := g.H2D.OnBusy
		g.H2D.OnBusy = func(from, to simclock.Time) {
			if prevH2D != nil {
				prevH2D(from, to)
			}
			m.PCIUtil.AddBusy(from, to)
		}
		m.NumGPUs++
	}
}

func (m *Metrics) bucket(t simclock.Time) int {
	if t < 0 {
		return 0
	}
	return int(int64(t) / int64(m.interval))
}

func (m *Metrics) latencyHist(idx int) *telemetry.Histogram {
	for len(m.LatencySeries) <= idx {
		m.LatencySeries = append(m.LatencySeries, telemetry.NewHistogram())
	}
	return m.LatencySeries[idx]
}

func (m *Metrics) coldSet(idx int) *coldSet {
	for len(m.coldModelSets) <= idx {
		m.coldModelSets = append(m.coldModelSets, coldSet{})
	}
	return &m.coldModelSets[idx]
}

// record ingests one client-observed result.
func (m *Metrics) record(now simclock.Time, res Result, slo time.Duration) {
	idx := m.bucket(now)
	lat := telemetry.NewSample(res.Latency) // bucketed once for five histograms
	m.LatencyAll.ObserveSample(lat)
	m.latencyHist(idx).ObserveSample(lat)
	m.Throughput.Incr(now)
	m.recentLatency.ObserveSample(lat)
	if slo > 0 && (m.recentMinSLO == 0 || slo < m.recentMinSLO) {
		m.recentMinSLO = slo
	}

	m.Total.add(res, slo)
	m.recent.add(res, slo)
	m.perModel = action.Grow(m.perModel, res.id)
	mo := m.perModel[res.id]
	if mo == nil {
		mo = &modelOutcomes{latency: telemetry.NewHistogram()}
		m.perModel[res.id] = mo
	}
	mo.add(res, slo)
	mo.latency.ObserveSample(lat)
	if res.Tenant != "" {
		to := m.perTenant[res.Tenant]
		if to == nil {
			to = &Outcomes{}
			m.perTenant[res.Tenant] = to
		}
		to.add(res, slo)
	}

	if res.Success {
		if res.Latency <= slo {
			m.LatencyGood.ObserveSample(lat)
			m.Goodput.Incr(now)
		}
		m.Batch.Add(now, float64(res.Batch))
		if res.ColdStart {
			m.ColdStartThroughput.Incr(now)
		}
	}
	if res.ColdStart {
		m.coldSet(idx).add(res.id)
	}
}

// modelStats returns the per-model aggregate for id; ok is false when
// the model has not produced any response yet. elapsed (the run's
// virtual duration) normalises goodput.
func (m *Metrics) modelStats(id ModelID, elapsed time.Duration) (ModelStats, bool) {
	if int(id) >= len(m.perModel) || m.perModel[id] == nil {
		return ModelStats{}, false
	}
	mo := m.perModel[id]
	st := ModelStats{
		Outcomes: mo.Outcomes,
		P50:      mo.latency.Percentile(50),
		P99:      mo.latency.Percentile(99),
		Max:      mo.latency.Max(),
	}
	if s := elapsed.Seconds(); s > 0 {
		st.GoodputMean = float64(mo.WithinSLO) / s
	}
	return st, true
}

// TenantStats returns the per-tenant outcomes; ok is false for tenants
// that have not produced any response.
func (m *Metrics) TenantStats(tenant string) (Outcomes, bool) {
	to, ok := m.perTenant[tenant]
	if !ok {
		return Outcomes{}, false
	}
	return *to, true
}

// ColdModels returns the number of distinct models that had at least one
// cold-start request in interval i (Fig 8(d)).
func (m *Metrics) ColdModels(i int) int {
	if i < 0 || i >= len(m.coldModelSets) {
		return 0
	}
	return m.coldModelSets[i].n
}

// GPUUtilFraction returns the mean per-GPU busy fraction in interval i.
func (m *Metrics) GPUUtilFraction(i int) float64 {
	if m.NumGPUs == 0 {
		return 0
	}
	return float64(m.GPUUtil.BusyIn(i)) / float64(m.interval) / float64(m.NumGPUs)
}

// PCIUtilFraction returns the mean per-link busy fraction in interval i.
func (m *Metrics) PCIUtilFraction(i int) float64 {
	if m.NumGPUs == 0 {
		return 0
	}
	return float64(m.PCIUtil.BusyIn(i)) / float64(m.interval) / float64(m.NumGPUs)
}
