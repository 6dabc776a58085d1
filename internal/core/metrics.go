package core

import (
	"sync"
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

	// concurrent switches the write paths (record, the device busy
	// callbacks) onto mu. The single-engine control plane leaves it off
	// — everything runs on one goroutine and the hot path pays nothing;
	// a multi-engine cluster (one engine per shard) sets it at
	// construction. Reads are only consistent when no engine is running
	// — in live multi-engine mode, under a Live.Do barrier.
	concurrent bool
	mu         sync.Mutex

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

	Success   telemetry.Counter
	Failures  telemetry.Counter
	SLOMisses telemetry.Counter // successes that exceeded the SLO end-to-end

	// perModel (by model ID) and perTenant break client-observed
	// outcomes down for the control plane's ModelStats/TenantStats,
	// lazily allocated on a model/tenant's first response. IDs are
	// permanent per name, so a model's counters survive unregistration
	// and are found again when the name comes back.
	perModel  []*modelCounters
	perTenant map[string]*tenantCounters

	// perShard bins client-observed outcomes by the scheduler shard
	// that owned the model at completion — the balance signal the
	// sharded control plane exposes (grown lazily to the highest shard
	// index seen).
	perShard []ShardBin

	// recent* accumulate one control period's client-observed outcomes
	// for the closed-loop autoscaler: a single engine-confined consumer
	// drains and resets them each period via DrainRecent. Guarded by
	// the same lock()/unlock() gate as every other write path.
	recentCompleted  uint64
	recentViolations uint64
	recentLatency    *telemetry.Histogram
	recentMinSLO     time.Duration
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

// ShardBin is one scheduler shard's slice of the client-observed
// outcome counters.
type ShardBin struct {
	Requests  uint64
	Succeeded uint64
	Failed    uint64
	// WithinSLO counts successes inside their SLO; SLOMisses counts
	// successes that exceeded it end-to-end.
	WithinSLO uint64
	SLOMisses uint64
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

// modelCounters aggregates one model's client-observed outcomes.
type modelCounters struct {
	requests, succeeded, failed uint64
	withinSLO, sloMisses        uint64
	coldStarts                  uint64
	cancelled, rejected         uint64
	timedOut, workerLost        uint64
	latency                     *telemetry.Histogram
}

// tenantCounters aggregates one tenant's client-observed outcomes.
type tenantCounters struct {
	requests, succeeded, withinSLO uint64
}

// ModelStats is the per-model slice of the metrics, exposed through the
// runtime control plane.
type ModelStats struct {
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
	// Failure taxonomy (see Reason). WorkerLost counts requests whose
	// in-flight work died with a failed worker.
	Cancelled  uint64
	Rejected   uint64
	TimedOut   uint64
	WorkerLost uint64
	// Client-observed latency over all of the model's requests.
	P50, P99, Max time.Duration
	// GoodputMean is within-SLO responses per second of elapsed run.
	GoodputMean float64
}

// TenantStats is the per-tenant slice of the metrics.
type TenantStats struct {
	Requests  uint64
	Succeeded uint64
	WithinSLO uint64
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
		perTenant:           make(map[string]*tenantCounters),
		recentLatency:       telemetry.NewHistogram(),
	}
}

// DrainRecent returns the outcomes accumulated since the previous
// drain and resets the period accumulators. Engine-side: call it from
// one consumer only, on the engine goroutine (in live multi-engine
// mode, under a Live.Do barrier — the same consistency rule every
// cross-shard read follows).
func (m *Metrics) DrainRecent() RecentStats {
	m.lock()
	defer m.unlock()
	st := RecentStats{
		Completed:  m.recentCompleted,
		Violations: m.recentViolations,
		P99:        m.recentLatency.Percentile(99),
		MinSLO:     m.recentMinSLO,
	}
	m.recentCompleted = 0
	m.recentViolations = 0
	m.recentLatency = telemetry.NewHistogram()
	m.recentMinSLO = 0
	return st
}

// Interval returns the bucket width shared by all series.
func (m *Metrics) Interval() time.Duration { return m.interval }

// setConcurrent arms the write-path mutex; call before any engine runs.
func (m *Metrics) setConcurrent() { m.concurrent = true }

func (m *Metrics) lock() {
	if m.concurrent {
		m.mu.Lock()
	}
}

func (m *Metrics) unlock() {
	if m.concurrent {
		m.mu.Unlock()
	}
}

func (m *Metrics) attachGPUs(w *worker.Worker) {
	for i := 0; i < w.NumGPUs(); i++ {
		g := w.GPU(i)
		prevDev := g.Dev.OnBusy
		g.Dev.OnBusy = func(from, to simclock.Time) {
			if prevDev != nil {
				prevDev(from, to)
			}
			m.lock()
			m.GPUUtil.AddBusy(from, to)
			m.unlock()
		}
		prevH2D := g.H2D.OnBusy
		g.H2D.OnBusy = func(from, to simclock.Time) {
			if prevH2D != nil {
				prevH2D(from, to)
			}
			m.lock()
			m.PCIUtil.AddBusy(from, to)
			m.unlock()
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

// shardBin returns the (lazily grown) bin for shard i.
func (m *Metrics) shardBin(i int) *ShardBin {
	for len(m.perShard) <= i {
		m.perShard = append(m.perShard, ShardBin{})
	}
	return &m.perShard[i]
}

// ShardStats returns shard i's outcome bin (zero for shards that have
// not completed any response yet).
func (m *Metrics) ShardStats(i int) ShardBin {
	if i < 0 || i >= len(m.perShard) {
		return ShardBin{}
	}
	return m.perShard[i]
}

// record ingests one client-observed response, attributed to the
// scheduler shard owning the model at completion.
func (m *Metrics) record(now simclock.Time, shard int, resp Response, latency, slo time.Duration) {
	m.lock()
	defer m.unlock()
	idx := m.bucket(now)
	m.LatencyAll.Observe(latency)
	m.latencyHist(idx).Observe(latency)
	m.Throughput.Incr(now)
	m.recentCompleted++
	m.recentLatency.Observe(latency)
	if !resp.Success || latency > slo {
		m.recentViolations++
	}
	if slo > 0 && (m.recentMinSLO == 0 || slo < m.recentMinSLO) {
		m.recentMinSLO = slo
	}
	sb := m.shardBin(shard)
	sb.Requests++

	m.perModel = action.Grow(m.perModel, resp.id)
	mc := m.perModel[resp.id]
	if mc == nil {
		mc = &modelCounters{latency: telemetry.NewHistogram()}
		m.perModel[resp.id] = mc
	}
	mc.requests++
	mc.latency.Observe(latency)
	if resp.ColdStart {
		mc.coldStarts++
	}
	var tc *tenantCounters
	if resp.Tenant != "" {
		tc = m.perTenant[resp.Tenant]
		if tc == nil {
			tc = &tenantCounters{}
			m.perTenant[resp.Tenant] = tc
		}
		tc.requests++
	}

	if resp.Success {
		m.Success.Incr()
		mc.succeeded++
		sb.Succeeded++
		if tc != nil {
			tc.succeeded++
		}
		if latency <= slo {
			m.LatencyGood.Observe(latency)
			m.Goodput.Incr(now)
			mc.withinSLO++
			sb.WithinSLO++
			if tc != nil {
				tc.withinSLO++
			}
		} else {
			m.SLOMisses.Incr()
			mc.sloMisses++
			sb.SLOMisses++
		}
		m.Batch.Add(now, float64(resp.Batch))
		if resp.ColdStart {
			m.ColdStartThroughput.Incr(now)
			m.coldSet(idx).add(resp.id)
		}
	} else {
		m.Failures.Incr()
		mc.failed++
		sb.Failed++
		switch resp.Reason {
		case ReasonCancelled, ReasonUnregistered:
			mc.cancelled++
		case ReasonTimeout:
			mc.timedOut++
		case ReasonWorkerFailed:
			mc.workerLost++
		default:
			mc.rejected++
		}
		if resp.ColdStart {
			m.coldSet(idx).add(resp.id)
		}
	}
}

// modelStats returns the per-model aggregate for id; ok is false when
// the model has not produced any response yet. elapsed (the run's
// virtual duration) normalises goodput.
func (m *Metrics) modelStats(id ModelID, elapsed time.Duration) (ModelStats, bool) {
	if int(id) >= len(m.perModel) || m.perModel[id] == nil {
		return ModelStats{}, false
	}
	mc := m.perModel[id]
	st := ModelStats{
		Requests:   mc.requests,
		Succeeded:  mc.succeeded,
		Failed:     mc.failed,
		WithinSLO:  mc.withinSLO,
		SLOMisses:  mc.sloMisses,
		ColdStarts: mc.coldStarts,
		Cancelled:  mc.cancelled,
		Rejected:   mc.rejected,
		TimedOut:   mc.timedOut,
		WorkerLost: mc.workerLost,
		P50:        mc.latency.Percentile(50),
		P99:        mc.latency.Percentile(99),
		Max:        mc.latency.Max(),
	}
	if s := elapsed.Seconds(); s > 0 {
		st.GoodputMean = float64(mc.withinSLO) / s
	}
	return st, true
}

// TenantStats returns the per-tenant aggregate; ok is false for tenants
// that have not produced any response.
func (m *Metrics) TenantStats(tenant string) (TenantStats, bool) {
	tc, ok := m.perTenant[tenant]
	if !ok {
		return TenantStats{}, false
	}
	return TenantStats{Requests: tc.requests, Succeeded: tc.succeeded, WithinSLO: tc.withinSLO}, true
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
