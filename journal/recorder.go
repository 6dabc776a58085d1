package journal

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"clockwork"
)

// Options configures a journal.
type Options struct {
	// Fsync selects machine-crash durability (see FsyncPolicy).
	Fsync FsyncPolicy
	// FsyncEvery is the background fsync cadence under FsyncInterval
	// (default 100ms).
	FsyncEvery time.Duration
	// MaxSegmentBytes rotates the write-ahead log when a segment
	// exceeds this size (default 64MB).
	MaxSegmentBytes int64
	// SnapshotEvery, if > 0, has the serve layer take a snapshot on
	// this wall-clock cadence (the journal itself does not tick —
	// snapshots must enter through the engine like every injection).
	SnapshotEvery time.Duration
	// Retain selects on-disk history (default RetainAll; see
	// Retention — pruning forfeits deterministic replay of the epoch).
	Retain Retention

	// Speed and MaxInFlight mirror the serve options into the genesis
	// state so recovery can restart the daemon identically.
	Speed       float64
	MaxInFlight int

	// PriorRequests/PriorAcked seed cumulative accounting (recovery
	// passes the totals of previous epochs; fresh journals leave 0).
	PriorRequests uint64
	PriorAcked    uint64
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.FsyncEvery <= 0 {
		out.FsyncEvery = 100 * time.Millisecond
	}
	if out.MaxSegmentBytes <= 0 {
		out.MaxSegmentBytes = 64 << 20
	}
	return out
}

// Recorder appends the injection journal for one live epoch. The
// record methods, and Apply with a recorder, are engine-confined: they
// must run inside the injected closure (or engine-side callback)
// performing the operation they record, because the (step, virtual
// time) stamp is read off the engine at the call. Status and Close are
// safe from any goroutine.
//
// Appends never block the serving path on storage: a write error
// latches the recorder into a failed state (Status().Failed) and
// further records are dropped. A deployment that must stop serving on
// journal failure should watch that flag.
type Recorder struct {
	w    *writer
	sys  *clockwork.System
	base State // static genesis fields (Config, Speed, MaxInFlight, Prior*)

	nextCorr uint64 // engine-confined
	// dirty flags buffered records pending a Flush. Engine-side
	// appenders set it; Flush — called from whichever goroutine
	// externalizes a response — clears it, hence atomic.
	dirty atomic.Bool

	snapCount    atomic.Uint64
	lastSnapUnix atomic.Int64
	lastSnapMu   sync.Mutex
	lastSnapPath string
	lastSnapSeq  uint64

	stopSync  chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// Create opens a new epoch in dir (epoch 0 for a fresh directory, one
// past the latest otherwise) and writes its genesis record: the full
// current control-plane state of sys. Call it after preloading models
// and before StartLive — or with recovery's rebuilt system, whose
// restored registry then becomes the new epoch's genesis.
func Create(dir string, sys *clockwork.System, cfg clockwork.Config, opts Options) (*Recorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	epoch := 0
	if last, ok, err := LatestEpoch(dir); err != nil {
		return nil, err
	} else if ok {
		epoch = last + 1
	}
	o := opts.withDefaults()
	r := &Recorder{
		sys: sys,
		base: State{
			Config:        cfg,
			Speed:         o.Speed,
			MaxInFlight:   o.MaxInFlight,
			PriorRequests: o.PriorRequests,
			PriorAcked:    o.PriorAcked,
		},
		nextCorr: 1,
		stopSync: make(chan struct{}),
	}
	w, err := newWriter(dir, epoch, o)
	if err != nil {
		return nil, err
	}
	r.w = w

	// Genesis: capture the live state and make it durable before any
	// traffic can be recorded against it.
	st := r.base
	if err := captureInto(sys, &st); err != nil {
		w.close()
		return nil, err
	}
	if _, err := w.append(&Record{Type: recGenesis, Step: st.Step, VT: st.VT, State: &st}, true); err != nil {
		w.close()
		return nil, err
	}
	if err := w.sync(); err != nil {
		w.close()
		return nil, err
	}

	if o.Fsync == FsyncInterval {
		go r.syncLoop(o.FsyncEvery)
	}
	return r, nil
}

func (r *Recorder) syncLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.stopSync:
			return
		case <-t.C:
			// A failed sync has latched the writer (Status reports
			// it) and every later sync would fail the same way.
			if r.w.sync() != nil {
				return
			}
		}
	}
}

// Epoch returns the epoch this recorder appends to.
func (r *Recorder) Epoch() int { return r.w.epoch }

// SnapshotEvery exposes the configured periodic-snapshot cadence (0
// when disabled) — the serve layer drives the ticker.
func (r *Recorder) SnapshotEvery() time.Duration { return r.w.opts.SnapshotEvery }

func (r *Recorder) stamp(rec *Record) {
	rec.Step = r.sys.EngineSteps()
	rec.VT = r.sys.Now()
}

// Infer records one externally-submitted inference request and returns
// its correlation ID (0 when the journal has failed; acks with corr 0
// are dropped). The record is buffered — call Commit before the
// injected closure returns so a coalesced batch reaches the kernel in
// one write.
func (r *Recorder) Infer(model string, slo time.Duration, priority int, tenant string, maxBatch int) uint64 {
	rec := Record{
		Type: recInfer, Corr: r.nextCorr,
		Model: model, SLO: slo, Priority: priority, Tenant: tenant, MaxBatch: maxBatch,
	}
	r.stamp(&rec)
	if _, err := r.w.append(&rec, false); err != nil {
		return 0
	}
	r.nextCorr++
	r.dirty.Store(true)
	return rec.Corr
}

// Commit pushes buffered inference records to the kernel. Call it at
// the end of every injected closure that called Infer: it bounds the
// crash-loss window to one closure and keeps a coalesced batch's
// records in one write.
func (r *Recorder) Commit() {
	if !r.dirty.Load() {
		return
	}
	r.Flush()
}

// Ack records the acknowledged outcome of the request correlated as
// corr. It must run in the completion callback (engine side) before
// the response is queued toward the client; the record buffers until a
// Flush — which the transports issue immediately before putting any
// response on the wire, so the append still happens-before the client
// can observe the ack (the no-acked-request-lost invariant recovery
// reports against) while one write(2) covers every ack buffered since
// the last barrier.
func (r *Recorder) Ack(corr uint64, res clockwork.Result) {
	if corr == 0 {
		return
	}
	rec := Record{
		Type: recAck, Corr: corr, RequestID: res.RequestID,
		Success: res.Success, Reason: uint8(res.Reason),
		Latency: res.Latency, Batch: res.Batch, ColdStart: res.ColdStart,
	}
	r.stamp(&rec)
	r.dirty.Store(true)
	_, _ = r.w.append(&rec, false)
}

// Flush is the group-commit barrier: it pushes every buffered record
// into the kernel (write(2); plus fsync under FsyncAlways), and is a
// no-op when another responder already drained the buffer. Transports
// MUST call it between an acked completion and that response reaching
// the wire. Safe from any goroutine.
func (r *Recorder) Flush() {
	r.dirty.Store(false)
	_ = r.w.flush()
	if r.w.opts.Fsync == FsyncAlways {
		_ = r.w.sync()
	}
}

// appendOp journals an op — Apply's record step. The op is flushed to
// the kernel at once, and an Autoscale op's window also becomes the
// admission config a later snapshot carries forward into recovery.
func (r *Recorder) appendOp(op Op) {
	rec := Record{Type: op.recType(), Op: op}
	r.stamp(&rec)
	if o, ok := op.(Autoscale); ok {
		r.base.MaxInFlight = o.Window
	}
	_, _ = r.w.append(&rec, true)
}

// Noop records nothing: a read under Live.Do takes no engine step, so
// replay has nothing to consume for it.
//
// Deprecated: reads need no record; drop the call.
func (r *Recorder) Noop() {}

// SnapshotInfo describes one taken snapshot; it is also the POST
// /v1/admin/snapshot body.
type SnapshotInfo struct {
	Path string `json:"path"`
	// Seq is the journal sequence the snapshot covers up to (its marker
	// record); Step and VT stamp the capture's engine position.
	Seq   uint64        `json:"seq"`
	Step  uint64        `json:"step"`
	VT    time.Duration `json:"virtual_time_ns"`
	Bytes int64         `json:"bytes"`
	// Models and Workers count what the snapshot captured.
	Models  int `json:"models"`
	Workers int `json:"workers"`
	// PrunedSegments counts segments removed under RetainToSnapshot.
	PrunedSegments int `json:"pruned_segments,omitempty"`
}

// Snapshot captures the current control-plane state, writes it durably
// to a snapshot file, then appends the marker record — so a marker in
// the log implies its file is complete on disk. Engine-confined, like
// every record method (serve wraps it in Live.Do; the marker is that
// injection's record). Cumulative request accounting rides the
// snapshot so recovery reports lifetime totals.
func (r *Recorder) Snapshot() (SnapshotInfo, error) {
	st := r.base
	st.PriorRequests = r.base.PriorRequests + r.w.infers.Load()
	st.PriorAcked = r.base.PriorAcked + r.w.acks.Load()
	if err := captureInto(r.sys, &st); err != nil {
		return SnapshotInfo{}, err
	}
	// Everything recorded so far must be on disk before the snapshot
	// claims to cover it.
	if err := r.w.sync(); err != nil {
		return SnapshotInfo{}, err
	}
	seq := r.w.peekNextSeq()
	payload := appendRecord(nil, &Record{Type: recGenesis, Seq: seq, Step: st.Step, VT: st.VT, State: &st})
	path, size, err := r.w.writeSnapshotFile(seq, payload)
	if err != nil {
		return SnapshotInfo{}, err
	}
	marker := Record{Type: recSnapshot}
	r.stamp(&marker)
	mseq, err := r.w.append(&marker, true)
	if err != nil {
		return SnapshotInfo{}, err
	}
	if mseq != seq {
		// Another append raced between peek and marker — impossible
		// while engine-confined, so treat it as the bug it would be.
		return SnapshotInfo{}, fmt.Errorf("journal: snapshot marker landed at seq %d, file named for %d", mseq, seq)
	}
	info := SnapshotInfo{
		Path: path, Seq: seq, Step: st.Step, VT: st.VT, Bytes: size,
		Models: len(st.Models), Workers: len(st.Workers),
	}
	if r.w.opts.Retain == RetainToSnapshot {
		info.PrunedSegments = r.w.pruneTo(seq)
	}
	r.snapCount.Add(1)
	r.lastSnapUnix.Store(time.Now().UnixNano())
	r.lastSnapMu.Lock()
	r.lastSnapPath = path
	r.lastSnapSeq = seq
	r.lastSnapMu.Unlock()
	return info, nil
}

// Status is a point-in-time view of the journal, safe from any
// goroutine (the admin plane and /metrics read it without touching the
// engine). It is also the GET /v1/admin/journal body.
type Status struct {
	Dir   string `json:"dir"`
	Epoch int    `json:"epoch"`

	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	Records  uint64 `json:"records"`
	Infers   uint64 `json:"infers"`
	Acks     uint64 `json:"acks"`

	Fsync FsyncPolicy `json:"fsync"`
	// UnsyncedBytes and FsyncLag report machine-crash exposure: bytes
	// in the kernel but not yet on stable storage, and for how long
	// (FsyncLag is 0 when nothing is pending).
	UnsyncedBytes int64         `json:"unsynced_bytes"`
	FsyncLag      time.Duration `json:"fsync_lag_ns"`

	Snapshots        uint64 `json:"snapshots"`
	LastSnapshotPath string `json:"last_snapshot_path,omitempty"`
	LastSnapshotSeq  uint64 `json:"last_snapshot_seq,omitempty"`
	// LastSnapshotAge is the wall-clock time since the last snapshot
	// (negative when none has been taken).
	LastSnapshotAge time.Duration `json:"last_snapshot_age_ns"`

	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"error,omitempty"`
}

// Status returns current journal gauges.
func (r *Recorder) Status() Status {
	s := Status{
		Dir:      r.w.dir,
		Epoch:    r.w.epoch,
		Segments: int(r.w.segments.Load()),
		Bytes:    r.w.bytesTotal.Load(),
		Records:  r.w.records.Load(),
		Infers:   r.w.infers.Load(),
		Acks:     r.w.acks.Load(),
		Fsync:    r.w.opts.Fsync,
	}
	s.UnsyncedBytes = r.w.unsyncedPub.Load()
	if s.UnsyncedBytes > 0 {
		s.FsyncLag = time.Since(time.Unix(0, r.w.lastSync.Load()))
	}
	s.Snapshots = r.snapCount.Load()
	if t := r.lastSnapUnix.Load(); t > 0 {
		s.LastSnapshotAge = time.Since(time.Unix(0, t))
	} else {
		s.LastSnapshotAge = -1
	}
	r.lastSnapMu.Lock()
	s.LastSnapshotPath = r.lastSnapPath
	s.LastSnapshotSeq = r.lastSnapSeq
	r.lastSnapMu.Unlock()
	if r.w.failed.Load() {
		s.Failed = true
		r.w.mu.Lock()
		if r.w.err != nil {
			s.Err = r.w.err.Error()
		}
		r.w.mu.Unlock()
	}
	return s
}

// Close stops the background syncer, flushes and fsyncs the tail, and
// closes the open segment. Idempotent; call it after Live.Stop (the
// engine goroutine is gone, so no appends race it).
func (r *Recorder) Close() error {
	r.closeOnce.Do(func() {
		close(r.stopSync)
		r.closeErr = r.w.close()
	})
	return r.closeErr
}
