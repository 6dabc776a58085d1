package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"clockwork"
	"clockwork/trace"
)

// This file holds the two consumers of a recorded epoch: deterministic
// replay (ReplayEpoch — rebuild the genesis system and re-execute every
// injection at its recorded step and instant) and crash recovery
// (EpochData.Rebuild — restore the latest snapshot and re-apply the
// control-plane mutations after it).

// ---- outcome hash ----

// The outcome hash digests the acknowledgement stream: for each ack, in
// order, the tuple (corr, request ID, success, reason, latency, batch,
// cold start, engine step, virtual instant). A recorded run and its
// replay hash identically exactly when every client-visible outcome —
// and its position in the deterministic execution — matches. The same
// sha256-over-outcomes technique fingerprints the simulation goldens
// (internal/experiments).

func hashAck(h hash.Hash, corr, reqID uint64, success bool, reason uint8, latency time.Duration, batch int, cold bool, step uint64, vt time.Duration) {
	var buf [58]byte
	binary.LittleEndian.PutUint64(buf[0:], corr)
	binary.LittleEndian.PutUint64(buf[8:], reqID)
	if success {
		buf[16] = 1
	}
	buf[17] = reason
	binary.LittleEndian.PutUint64(buf[18:], uint64(latency))
	binary.LittleEndian.PutUint64(buf[26:], uint64(batch))
	if cold {
		buf[34] = 1
	}
	binary.LittleEndian.PutUint64(buf[35:], step)
	binary.LittleEndian.PutUint64(buf[43:], uint64(vt))
	h.Write(buf[:])
}

// ackFunc is a replayed request's completion sink: a closure carrying
// the correlation ID the live run acknowledged the request under.
type ackFunc func(clockwork.Result)

func (f ackFunc) OnResult(r clockwork.Result) { f(r) }

// ReplayResult reports a deterministic replay.
type ReplayResult struct {
	// RecordedHash digests the epoch's recorded ack stream;
	// ReplayedHash the re-executed one. Match reports equality.
	RecordedHash string
	ReplayedHash string
	Match        bool

	Requests     uint64 // inference records re-executed
	RecordedAcks uint64
	ReplayedAcks uint64

	FinalStep uint64
	FinalVT   time.Duration

	Summary clockwork.Summary
}

// ReplayEpoch re-executes a recorded epoch through the simulator:
// rebuild the genesis system, then apply every recorded injection at
// its recorded engine step and virtual instant — an op or snapshot
// marker between steps, unless the epoch is version 1, whose barriers
// took steps. Returns an error on
// divergence (an injection landing at the wrong step or instant) — a
// journal/config mismatch, not a soft failure. Requires the genesis
// chain (unavailable after RetainToSnapshot pruning).
func ReplayEpoch(e *EpochData) (*ReplayResult, error) {
	return ReplayEpochTraced(e, nil)
}

// ReplayEpochTraced is ReplayEpoch with a flight recorder attached to
// the rebuilt system — the post-hoc tracing workflow: a journaled
// incident replays with tracing at sample rate 1.0 even though the
// live run recorded nothing. The recorder is a pure observer, so the
// outcome hashes match the recording exactly as in an untraced replay;
// after a successful return the recorder holds every replayed
// request's lifecycle (the engine is quiescent, so Snapshot is safe).
// A nil flight degrades to plain ReplayEpoch.
func ReplayEpochTraced(e *EpochData, flight *trace.Recorder) (*ReplayResult, error) {
	if e.Genesis == nil {
		return nil, fmt.Errorf("journal: epoch %d has no genesis (pruned to snapshot?); deterministic replay needs the full chain", e.Epoch)
	}
	sys, err := BuildSystem(e.Genesis)
	if err != nil {
		return nil, err
	}
	if flight != nil {
		sys.AttachFlightRecorder(flight)
	}
	rp := sys.Replay()
	barrier := rp.Do
	if e.Genesis.legacy {
		barrier = rp.Apply // version 1: each barrier took a step
	}

	res := &ReplayResult{}
	recHash := sha256.New()
	repHash := sha256.New()
	ack := func(corr uint64) ackFunc {
		return func(r clockwork.Result) {
			hashAck(repHash, corr, r.RequestID, r.Success, uint8(r.Reason), r.Latency, r.Batch, r.ColdStart, sys.EngineSteps(), sys.Now())
			res.ReplayedAcks++
		}
	}

	var lastAckStep uint64
	recs := e.Records
	for i := 0; i < len(recs); i++ {
		rec := &recs[i]
		switch rec.Type {
		case recGenesis:
			// Seq 0 opens the epoch; BuildSystem already consumed it.
		case recAck:
			hashAck(recHash, rec.Corr, rec.RequestID, rec.Success, rec.Reason, rec.Latency, rec.Batch, rec.ColdStart, rec.Step, rec.VT)
			res.RecordedAcks++
			lastAckStep = rec.Step
		case recInfer:
			// One injected closure recorded one recInfer per request,
			// all stamped with the closure's step — regroup them so the
			// replayed closure submits the same batch in one engine
			// turn.
			j := i
			for j+1 < len(recs) && recs[j+1].Type == recInfer && recs[j+1].Step == rec.Step {
				j++
			}
			group := recs[i : j+1]
			err := rp.Apply(rec.Step, rec.VT, func() {
				for k := range group {
					g := &group[k]
					req := clockwork.Request{
						Model:        g.Model,
						SLO:          g.SLO,
						Priority:     g.Priority,
						Tenant:       g.Tenant,
						MaxBatchSize: g.MaxBatch,
					}
					// A submission the live run saw fail (unknown
					// model, draining) recorded no ack; it fails here
					// identically and contributes nothing either.
					_ = sys.SubmitRequestSink(g.Shard, req, ack(g.Corr))
					res.Requests++
				}
			})
			if err != nil {
				return nil, fmt.Errorf("seq %d: %w", rec.Seq, err)
			}
			i = j
		default:
			// An op that failed live fails identically here. A snapshot
			// marker, or a version-1 read (no Op), applies nothing.
			op := rec.Op
			if err := barrier(rec.Step, rec.VT, func() { _, _ = Apply(sys, nil, op) }); err != nil {
				return nil, fmt.Errorf("seq %d: %w", rec.Seq, err)
			}
		}
	}

	// Run the tail out to the last recorded acknowledgement: every
	// completion the live run acked fires in this window; completions
	// past it were never acked (the daemon stopped first) and are
	// excluded on both sides.
	if lastAckStep > rp.Steps() {
		if err := rp.StepTo(lastAckStep); err != nil {
			return nil, fmt.Errorf("stepping to final ack: %w", err)
		}
	}

	res.RecordedHash = hex.EncodeToString(recHash.Sum(nil))
	res.ReplayedHash = hex.EncodeToString(repHash.Sum(nil))
	res.Match = res.RecordedHash == res.ReplayedHash && res.RecordedAcks == res.ReplayedAcks
	res.FinalStep = rp.Steps()
	res.FinalVT = sys.Now()
	res.Summary = sys.Summary()
	return res, nil
}

// ---- crash recovery ----

// RecoveryReport summarizes what a Rebuild restored.
type RecoveryReport struct {
	Epoch        int
	UsedSnapshot bool

	// Models and Workers count the rebuilt control plane.
	Models  int
	Workers int
	// AppliedOps counts post-snapshot control-plane mutations
	// re-applied from the log tail.
	AppliedOps int

	// EpochRequests/EpochAcked count this epoch's recorded inference
	// traffic; Unacked are requests recorded as submitted whose
	// acknowledgement never reached the journal — their clients saw a
	// connection failure, never a success, so dropping them is correct
	// (re-executing them would duplicate work the clients will retry).
	EpochRequests uint64
	EpochAcked    uint64
	Unacked       uint64

	// TotalRequests/TotalAcked are lifetime counts across every epoch
	// in the directory.
	TotalRequests uint64
	TotalAcked    uint64

	Truncated     bool
	TruncatedNote string
}

// Rebuild restores the epoch's final control-plane state: BuildSystem
// on the latest snapshot (or the genesis), then the post-snapshot
// control-plane mutations re-applied from the log tail. Recorded
// inference traffic is accounted, not re-executed. The returned carry
// state holds the configuration and cumulative accounting the next
// epoch's Create should inherit.
func (e *EpochData) Rebuild() (*clockwork.System, *State, *RecoveryReport, error) {
	base := e.Genesis
	var baseSeq uint64
	usedSnap := false
	if e.Snapshot != nil {
		base = e.Snapshot
		baseSeq = e.SnapshotSeq
		usedSnap = true
	}
	sys, err := BuildSystem(base)
	if err != nil {
		return nil, nil, nil, err
	}
	rep := &RecoveryReport{
		Epoch:         e.Epoch,
		UsedSnapshot:  usedSnap,
		Truncated:     e.Truncated,
		TruncatedNote: e.TruncatedNote,
	}

	acked := make(map[uint64]bool)
	var tailReq, tailAck uint64
	lastWindow := -1
	for i := range e.Records {
		rec := &e.Records[i]
		switch rec.Type {
		case recInfer:
			rep.EpochRequests++
			if rec.Seq > baseSeq {
				tailReq++
			}
		case recAck:
			rep.EpochAcked++
			acked[rec.Corr] = true
			if rec.Seq > baseSeq {
				tailAck++
			}
		}
		if rec.Seq <= baseSeq {
			continue
		}
		if op := rec.Op; op != nil { // only mutations move the rebuilt state
			_, _ = Apply(sys, nil, op) // an op that failed live fails identically here
			rep.AppliedOps++
			if a, ok := op.(Autoscale); ok {
				lastWindow = a.Window
			}
		}
	}
	for i := range e.Records {
		rec := &e.Records[i]
		if rec.Type == recInfer && !acked[rec.Corr] {
			rep.Unacked++
		}
	}
	rep.Models = sys.ModelCount()
	rep.Workers = sys.Workers()
	rep.TotalRequests = base.PriorRequests + tailReq
	rep.TotalAcked = base.PriorAcked + tailAck

	carry := *base
	carry.Models = nil
	carry.Workers = nil
	carry.PriorRequests = rep.TotalRequests
	carry.PriorAcked = rep.TotalAcked
	// The closed loop's last window decision after the snapshot
	// supersedes the snapshot's admission config: a recovered daemon
	// restarts with the window the loop had converged to.
	if lastWindow >= 0 {
		carry.MaxInFlight = lastWindow
	}
	return sys, &carry, rep, nil
}
