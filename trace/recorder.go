package trace

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"clockwork/internal/telemetry"
)

// Options parameterises a Recorder. The zero value selects the
// defaults: 1% sampling, 2048-trace rings, 256 retained violations.
type Options struct {
	// SampleRate is the head-based sampling probability in [0, 1].
	// Negative means "unset" (→ 0.01); 0 is a real rate (aggregate
	// layers and violation retention still run, the completed ring
	// stays empty).
	SampleRate float64
	// Enabled starts the recorder recording. When false, hooks return
	// immediately and only the admission-shed counter advances; the
	// admin plane can enable recording at runtime.
	Enabled bool
	// RingSize bounds the per-shard completed-trace ring (and the exec
	// and load span rings). Default 2048.
	RingSize int
	// ViolationRingSize bounds the always-retained per-shard ring of
	// SLO-violating traces. Default 256.
	ViolationRingSize int
}

func (o Options) withDefaults() Options {
	if o.SampleRate < 0 {
		o.SampleRate = 0.01
	}
	if o.SampleRate > 1 {
		o.SampleRate = 1
	}
	if o.RingSize <= 0 {
		o.RingSize = 2048
	}
	if o.ViolationRingSize <= 0 {
		o.ViolationRingSize = 256
	}
	return o
}

// DefaultSampleRate is the daemon's default head-based sampling rate.
const DefaultSampleRate = 0.01

// sampleAll is the threshold sentinel for rate >= 1: every request is
// sampled, with no hash comparison (so rate 1.0 is exact, not 1-2⁻⁶⁴).
const sampleAll = ^uint64(0)

// Recorder is the cluster-wide flight recorder: one ShardRecorder per
// scheduler shard (engine-confined, lock-free) plus the cross-shard
// controls (enabled flag, sample rate, shed counter) as atomics so the
// admin plane can flip them from any goroutine without touching engine
// state.
type Recorder struct {
	opts Options

	enabled atomic.Bool
	// threshold is the sampling cut: sample iff splitmix64(id) <
	// threshold, with sampleAll meaning "every request". rateBits
	// mirrors the rate as float bits for exact read-back.
	threshold atomic.Uint64
	rateBits  atomic.Uint64

	// shed counts requests shed by the serving layer's admission
	// control — they never reach the control plane, so the serving
	// layer reports them here (off-engine, hence atomic).
	shed atomic.Uint64

	shards []*ShardRecorder
}

// New returns a Recorder with the given options. Bind (or the cluster
// attach path, which calls it) fixes the shard count before use.
func New(o Options) *Recorder {
	r := &Recorder{opts: o.withDefaults()}
	r.SetSampleRate(r.opts.SampleRate)
	r.enabled.Store(r.opts.Enabled)
	return r
}

// Bind sizes the recorder to n scheduler shards. It is called by the
// cluster attach path before any engine runs; calling it twice with a
// different n panics (the recorder's rings are per-shard state).
func (r *Recorder) Bind(n int) {
	if r.shards != nil {
		if len(r.shards) != n {
			panic("trace: Recorder bound twice with different shard counts")
		}
		return
	}
	r.shards = make([]*ShardRecorder, n)
	for i := range r.shards {
		r.shards[i] = newShardRecorder(r, i)
	}
}

// Shard returns shard i's recorder (nil-safe on a nil Recorder, so
// unattached call sites cost one branch).
func (r *Recorder) Shard(i int) *ShardRecorder {
	if r == nil {
		return nil
	}
	return r.shards[i]
}

// SetEnabled flips recording on or off. Safe from any goroutine:
// recording is a pure observer, so a mid-flight flip changes what is
// captured, never what the scheduler does.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the recorder is recording.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// SetSampleRate sets the head-based sampling probability, clamped to
// [0, 1]. Safe from any goroutine.
func (r *Recorder) SetSampleRate(rate float64) {
	if rate < 0 || math.IsNaN(rate) {
		rate = 0
	}
	if rate >= 1 {
		r.rateBits.Store(math.Float64bits(1))
		r.threshold.Store(sampleAll)
		return
	}
	r.rateBits.Store(math.Float64bits(rate))
	// rate < 1 ⇒ rate·2⁶⁴ < 2⁶⁴, representable exactly enough: the
	// float product carries 53 significant bits, matching the sampling
	// resolution anywhere below 1.
	r.threshold.Store(uint64(rate * math.Exp2(64)))
}

// SampleRate returns the current sampling probability.
func (r *Recorder) SampleRate() float64 {
	return math.Float64frombits(r.rateBits.Load())
}

// sampled is the deterministic head-based sampling decision for a
// request ID at the current rate.
func (r *Recorder) sampled(id uint64) bool {
	th := r.threshold.Load()
	return th == sampleAll || splitmix64(id) < th
}

// RecordShed counts one admission-layer shed (the request never reached
// the control plane). Safe from any goroutine.
func (r *Recorder) RecordShed() {
	if r != nil {
		r.shed.Add(1)
	}
}

// Move transfers the in-flight building state of the given request IDs
// from one shard's recorder to another's, following a model migration.
// Must run with both engines stopped (the migration itself already
// requires that barrier).
func (r *Recorder) Move(from, to int, ids []uint64) {
	if r == nil || from == to {
		return
	}
	src, dst := r.shards[from], r.shards[to]
	for _, id := range ids {
		if t, ok := src.building[id]; ok {
			delete(src.building, id)
			t.Shard = to
			dst.building[id] = t
		}
	}
}

// ---- per-shard engine-confined state ----

// ShardRecorder is one scheduler shard's slice of the flight recorder.
// All methods except those documented otherwise must run on the shard's
// engine goroutine; none of them allocate engine events, so attaching a
// recorder never perturbs the schedule. All hook methods are nil-safe.
type ShardRecorder struct {
	rec   *Recorder
	shard int

	// building holds traces of requests still in flight, keyed by
	// request ID. Entries are created at admission and removed at
	// client-side completion (or migrated by Move).
	building map[uint64]*RequestTrace

	// completed retains sampled finalized traces; violations retains
	// every SLO-violating trace regardless of sampling.
	completed  ring[*RequestTrace]
	violations ring[*RequestTrace]
	execs      ring[ExecSpan]
	loads      ring[LoadSpan]

	// lastLoad remembers each model's most recent completed weight
	// transfer, for attributing cold-start load spans to requests.
	lastLoad map[string]LoadSpan

	// free recycles finalized traces that no ring retained — at low
	// sample rates that is nearly every request, making the recorder's
	// steady-state allocation cost ~zero instead of one RequestTrace
	// per request. Safe because Snapshot copies traces by value:
	// nothing outside the shard ever holds one of these pointers.
	free []*RequestTrace

	agg shardAgg
}

// shardAgg is the per-shard aggregate layer, merged at scrape time
// under a stopped-world view.
type shardAgg struct {
	stage   [numStages]*telemetry.Histogram
	predErr *telemetry.Histogram
	prov    map[provKey]uint64

	started     uint64 // building entries created
	finalized   uint64 // traces completed
	sampledKept uint64 // finalized traces retained in the completed ring
	violations  uint64 // finalized traces that violated (failed or over SLO)
	synthesized uint64 // traces reconstructed at completion
}

type provKey struct {
	cause  Cause
	model  string
	tenant string
}

func newShardRecorder(r *Recorder, shard int) *ShardRecorder {
	s := &ShardRecorder{
		rec:        r,
		shard:      shard,
		building:   make(map[uint64]*RequestTrace),
		completed:  newRing[*RequestTrace](r.opts.RingSize),
		violations: newRing[*RequestTrace](r.opts.ViolationRingSize),
		execs:      newRing[ExecSpan](r.opts.RingSize),
		loads:      newRing[LoadSpan](r.opts.RingSize),
		lastLoad:   make(map[string]LoadSpan),
	}
	for i := range s.agg.stage {
		s.agg.stage[i] = telemetry.NewHistogram()
	}
	s.agg.predErr = telemetry.NewHistogram()
	s.agg.prov = make(map[provKey]uint64)
	return s
}

func (s *ShardRecorder) on() bool { return s != nil && s.rec.enabled.Load() }

// Admitted records a request's controller-side admission: identity, SLO
// class, cold-start flag, and queue position. Creates the building
// entry every later hook enriches.
func (s *ShardRecorder) Admitted(id uint64, model, tenant string, slo time.Duration, priority int, cold bool, queueDepth int, now time.Duration) {
	if !s.on() {
		return
	}
	s.agg.started++
	t := s.newTrace()
	*t = RequestTrace{
		ID: id, Model: model, Tenant: tenant, Shard: s.shard,
		SLO: slo, Priority: priority,
		Sampled:   s.rec.sampled(id),
		ColdStart: cold, QueueDepth: queueDepth,
		AdmittedAt: now,
	}
	s.building[id] = t
}

// newTrace pops a recycled trace or allocates a fresh one.
func (s *ShardRecorder) newTrace() *RequestTrace {
	if n := len(s.free); n > 0 {
		t := s.free[n-1]
		s.free = s.free[:n-1]
		return t
	}
	return new(RequestTrace)
}

// Arrived stamps the client-side send instant (the request's first
// lifecycle event, known to the routing layer rather than the
// controller).
func (s *ShardRecorder) Arrived(id uint64, sentAt time.Duration) {
	if !s.on() {
		return
	}
	if t, ok := s.building[id]; ok {
		t.ClientSend = sentAt
	}
}

// Scheduled records the scheduler's dispatch decision for every request
// in an INFER action: target worker/GPU, batch size, predicted window
// start and predicted execution duration.
func (s *ShardRecorder) Scheduled(ids []uint64, actionID uint64, worker, gpu, batch int, predStart, predExec, now time.Duration) {
	if !s.on() {
		return
	}
	for _, id := range ids {
		t, ok := s.building[id]
		if !ok {
			continue
		}
		t.SchedAt = now
		t.ActionID = actionID
		t.Worker, t.GPU, t.Batch = worker, gpu, batch
		t.PredStart, t.PredExec = predStart, predExec
	}
}

// ExecDone records a successful INFER's measured on-GPU execution span
// for its requests, and appends the span to the per-GPU track ring.
func (s *ShardRecorder) ExecDone(ids []uint64, actionID uint64, model string, worker, gpu, batch int, start, end time.Duration) {
	if !s.on() {
		return
	}
	for _, id := range ids {
		if t, ok := s.building[id]; ok {
			t.ExecStart, t.ExecEnd = start, end
		}
	}
	// Copy the ID list: the caller's slice is the action's backing
	// array, which the controller recycles for the next dispatch.
	s.execs.push(ExecSpan{
		ActionID: actionID, Model: model, Shard: s.shard,
		Worker: worker, GPU: gpu, Batch: batch,
		Start: start, End: end, Requests: append([]uint64(nil), ids...),
	})
}

// LoadDone records a completed LOAD action's weight transfer. Finalize
// attributes it to cold-start requests that queued across it.
func (s *ShardRecorder) LoadDone(model string, worker, gpu int, start, end time.Duration, ok bool) {
	if !s.on() {
		return
	}
	span := LoadSpan{Model: model, Shard: s.shard, Worker: worker, GPU: gpu, Start: start, End: end, OK: ok}
	s.loads.push(span)
	if ok {
		s.lastLoad[model] = span
	}
}

// Responded stamps the controller-side response instant.
func (s *ShardRecorder) Responded(id uint64, now time.Duration) {
	if !s.on() {
		return
	}
	if t, ok := s.building[id]; ok {
		t.RespondedAt = now
	}
}

// Outcome is a request's terminal result as the client observed it,
// handed to Completed by the routing layer.
type Outcome struct {
	ID        uint64
	Model     string
	Tenant    string
	Success   bool
	Reason    uint8
	ReasonStr string
	Batch     int
	ColdStart bool
	SLO       time.Duration
	// Latency is the client-observed end-to-end latency.
	Latency time.Duration
}

// Completed finalizes a request's trace at client-side completion:
// computes the stage decomposition, attributes the provenance cause,
// feeds the aggregate layer, and retains the trace per the sampling
// and violation-retention rules. A request admitted while the recorder
// was off (or never admitted at all, e.g. unregistered models) gets a
// synthesized minimal trace so provenance still counts it.
func (s *ShardRecorder) Completed(o Outcome, now time.Duration) {
	if !s.on() {
		return
	}
	t, ok := s.building[o.ID]
	if ok {
		delete(s.building, o.ID)
	} else {
		t = s.newTrace()
		*t = RequestTrace{
			ID: o.ID, Model: o.Model, Tenant: o.Tenant, Shard: s.shard,
			SLO: o.SLO, Sampled: s.rec.sampled(o.ID), Synthesized: true,
		}
		s.agg.synthesized++
	}
	t.Success, t.Reason, t.ReasonStr = o.Success, o.Reason, o.ReasonStr
	t.ColdStart = t.ColdStart || o.ColdStart
	if o.Batch > 0 {
		t.Batch = o.Batch
	}
	t.Latency = o.Latency
	t.DoneAt = now
	t.Violation = !o.Success || o.Latency > o.SLO
	// Attribute the cold-start load span: the model's most recent
	// completed transfer, if it overlapped this request's queue wait.
	if t.ColdStart && t.AdmittedAt > 0 {
		if span, ok := s.lastLoad[t.Model]; ok && span.End >= t.AdmittedAt && (t.ExecStart == 0 || span.Start < t.ExecStart) {
			t.LoadStart, t.LoadEnd = span.Start, span.End
		}
	}
	t.Cause = t.attributeCause()

	// Aggregate layer — full population, not just sampled traces.
	s.agg.finalized++
	for _, st := range Stages {
		if d, ok := t.StageDur(st); ok {
			s.agg.stage[st].Observe(d)
		}
	}
	if t.PredExec > 0 && t.ExecEnd > t.ExecStart {
		err := (t.ExecEnd - t.ExecStart) - t.PredExec
		if err < 0 {
			err = -err
		}
		s.agg.predErr.Observe(err)
	}
	if t.Violation {
		s.agg.violations++
		s.agg.prov[provKey{t.Cause, t.Model, t.Tenant}]++
	}

	// Retention — or recycling, when no ring keeps the trace (the
	// common case at low sample rates). The free list is bounded by
	// the in-flight population: it only grows when a request admitted
	// with a fresh allocation finalizes unretained.
	if t.Sampled {
		s.agg.sampledKept++
	}
	switch {
	case t.Violation && t.Sampled:
		s.violations.push(t)
		s.completed.push(t)
	case t.Violation:
		s.violations.push(t)
	case t.Sampled:
		s.completed.push(t)
	default:
		s.free = append(s.free, t)
	}
}

// Building returns the number of in-flight building entries (tests and
// leak checks; engine-side read).
func (s *ShardRecorder) Building() int { return len(s.building) }

// ---- bounded rings ----

type ring[T any] struct {
	buf []T
	n   uint64 // total pushed
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, 0, capacity)}
}

func (r *ring[T]) push(v T) {
	if cap(r.buf) == 0 {
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.n%uint64(cap(r.buf))] = v
	}
	r.n++
}

// items returns the retained elements oldest-first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) || cap(r.buf) == 0 {
		return append(out, r.buf...)
	}
	start := r.n % uint64(cap(r.buf))
	for i := 0; i < len(r.buf); i++ {
		out = append(out, r.buf[(start+uint64(i))%uint64(len(r.buf))])
	}
	return out
}

// ---- stopped-world reads ----

// ProvenanceCount is one (cause, model, tenant) cell of the SLO-miss
// provenance table.
type ProvenanceCount struct {
	Cause  string `json:"cause"`
	Model  string `json:"model"`
	Tenant string `json:"tenant"`
	Count  uint64 `json:"count"`
}

// Stats summarises recorder volume.
type Stats struct {
	Started     uint64 `json:"started"`
	Finalized   uint64 `json:"finalized"`
	SampledKept uint64 `json:"sampled_kept"`
	Violations  uint64 `json:"violations"`
	Synthesized uint64 `json:"synthesized"`
	Building    uint64 `json:"building"`
	Shed        uint64 `json:"shed"`
}

// Aggregate is the recorder's merged aggregate layer: per-stage latency
// decomposition histograms, the predicted-vs-actual execution error
// histogram, and the provenance table.
type Aggregate struct {
	Stage   map[Stage]*telemetry.Histogram
	PredErr *telemetry.Histogram
	// Provenance is sorted by (cause, model, tenant) for deterministic
	// emission order.
	Provenance []ProvenanceCount
	Stats      Stats
}

// Aggregate merges every shard's aggregate layer. Must run with all
// engines stopped (Live.Do in live mode; quiescence in simulation).
func (r *Recorder) Aggregate() Aggregate {
	a := Aggregate{Stage: make(map[Stage]*telemetry.Histogram), PredErr: telemetry.NewHistogram()}
	for _, st := range Stages {
		a.Stage[st] = telemetry.NewHistogram()
	}
	prov := make(map[provKey]uint64)
	for _, s := range r.shards {
		for _, st := range Stages {
			a.Stage[st].Merge(s.agg.stage[st])
		}
		a.PredErr.Merge(s.agg.predErr)
		for k, v := range s.agg.prov {
			prov[k] += v
		}
		a.Stats.Started += s.agg.started
		a.Stats.Finalized += s.agg.finalized
		a.Stats.SampledKept += s.agg.sampledKept
		a.Stats.Violations += s.agg.violations
		a.Stats.Synthesized += s.agg.synthesized
		a.Stats.Building += uint64(len(s.building))
	}
	a.Stats.Shed = r.shed.Load()
	a.Provenance = sortProvenance(prov)
	return a
}

func sortProvenance(prov map[provKey]uint64) []ProvenanceCount {
	out := make([]ProvenanceCount, 0, len(prov))
	for k, v := range prov {
		out = append(out, ProvenanceCount{Cause: k.cause.String(), Model: k.model, Tenant: k.tenant, Count: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cause != out[j].Cause {
			return out[i].Cause < out[j].Cause
		}
		if out[i].Model != out[j].Model {
			return out[i].Model < out[j].Model
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// Snapshot is a stopped-world copy of the recorder's retained traces
// and aggregates, plus the wall↔virtual correlation metadata the caller
// stamps in (the recorder itself never reads wall clocks).
type Snapshot struct {
	// VirtualNow is the engine instant of the snapshot (shard 0's clock
	// in multi-engine mode); WallOrigin/Speed correlate virtual offsets
	// with wall time: wall = WallOrigin + (virtual-VirtualOrigin)/Speed.
	VirtualNow    time.Duration `json:"virtual_now"`
	WallOrigin    time.Time     `json:"wall_origin,omitempty"`
	VirtualOrigin time.Duration `json:"virtual_origin,omitempty"`
	Speed         float64       `json:"speed,omitempty"`

	Enabled    bool    `json:"enabled"`
	SampleRate float64 `json:"sample_rate"`

	// Requests holds retained traces (sampled ∪ violations, deduped),
	// ordered by admission instant then ID.
	Requests []RequestTrace `json:"requests"`
	Execs    []ExecSpan     `json:"execs"`
	Loads    []LoadSpan     `json:"loads"`

	Provenance []ProvenanceCount `json:"provenance"`
	Stats      Stats             `json:"stats"`
}

// Snapshot copies the retained traces and aggregates. Must run with all
// engines stopped, like Aggregate.
func (r *Recorder) Snapshot() *Snapshot {
	snap := &Snapshot{Enabled: r.enabled.Load(), SampleRate: r.SampleRate()}
	seen := make(map[uint64]bool)
	for _, s := range r.shards {
		for _, t := range s.completed.items() {
			if !seen[t.ID] {
				seen[t.ID] = true
				snap.Requests = append(snap.Requests, *t)
			}
		}
		for _, t := range s.violations.items() {
			if !seen[t.ID] {
				seen[t.ID] = true
				snap.Requests = append(snap.Requests, *t)
			}
		}
		snap.Execs = append(snap.Execs, s.execs.items()...)
		snap.Loads = append(snap.Loads, s.loads.items()...)
	}
	sort.Slice(snap.Requests, func(i, j int) bool {
		a, b := &snap.Requests[i], &snap.Requests[j]
		if a.AdmittedAt != b.AdmittedAt {
			return a.AdmittedAt < b.AdmittedAt
		}
		return a.ID < b.ID
	})
	sort.Slice(snap.Execs, func(i, j int) bool {
		a, b := &snap.Execs[i], &snap.Execs[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ActionID < b.ActionID
	})
	sort.Slice(snap.Loads, func(i, j int) bool {
		a, b := &snap.Loads[i], &snap.Loads[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Model < b.Model
	})
	agg := r.Aggregate()
	snap.Provenance = agg.Provenance
	snap.Stats = agg.Stats
	return snap
}
