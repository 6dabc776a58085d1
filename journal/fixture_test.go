package journal_test

import (
	"slices"
	"testing"

	"clockwork"
	"clockwork/journal"
)

// The committed epoch under testdata/epochs/admin was written by
// clockworkd (-workers 2 -gpus 1 -speed 100 -journal DIR
// -journal-fsync never -autoscale -autoscale-period 1000h, so the loop
// never ticks on its own) driven over HTTP with, in order:
//
//	POST /v1/models {"instance":"a","zoo":"resnet50_v1b"}
//	POST /v1/models {"instance":"b","zoo":"resnet18_v1","copies":3}
//	20 × POST /v1/infer {"model":"a"}
//	POST /v1/admin/workers               (worker 2)
//	POST /v1/admin/workers/drain {"id":0}
//	POST /v1/admin/workers/fail {"id":1}
//	POST /v1/admin/rebalance
//	POST /v1/admin/autoscaler {"enabled":false,"window":64}
//	10 × POST /v1/infer {"model":"b#1"}
//
// then SIGTERM. Every infer used a 500 ms SLO.
const (
	committedEpochDir  = "testdata/epochs/admin"
	committedEpochHash = "409616e517277a79aed27cf14fd93307d894fb9f3a1db0eda53fb2b08f4f3570"
	committedEpochAcks = 30
)

// TestCommittedEpochReplays reads a journal an earlier build wrote:
// replay must reproduce its recorded ack stream bit-for-bit, and
// recovery must restore the registry, the worker set and the pinned
// admission window. A change that moves any of these either breaks
// replay of existing journals or must re-record the fixture and say
// why.
func TestCommittedEpochReplays(t *testing.T) {
	ep, err := journal.Load(committedEpochDir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if ep.Truncated {
		t.Fatalf("committed epoch reads truncated: %s", ep.TruncatedNote)
	}
	res, err := journal.ReplayEpoch(ep)
	if err != nil {
		t.Fatalf("ReplayEpoch: %v", err)
	}
	if !res.Match || res.RecordedHash != committedEpochHash || res.RecordedAcks != committedEpochAcks {
		t.Fatalf("committed epoch: match=%v acks=%d/%d\n recorded  %s\n replayed  %s\n committed %s (%d acks)",
			res.Match, res.RecordedAcks, res.ReplayedAcks, res.RecordedHash, res.ReplayedHash,
			committedEpochHash, committedEpochAcks)
	}

	sys, carry, rep, err := ep.Rebuild()
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if got, want := sys.Models(), []string{"a", "b#0", "b#1", "b#2"}; !slices.Equal(got, want) {
		t.Fatalf("rebuilt models = %v, want %v", got, want)
	}
	if rep.Workers != 3 || sys.Workers() != 3 {
		t.Fatalf("rebuilt %d workers (report %d), want 3", sys.Workers(), rep.Workers)
	}
	for id, want := range []clockwork.WorkerState{clockwork.WorkerDraining, clockwork.WorkerFailed, clockwork.WorkerActive} {
		if got, err := sys.WorkerStateOf(id); err != nil || got != want {
			t.Fatalf("rebuilt worker %d state = %v, %v; want %v", id, got, err, want)
		}
	}
	if carry.MaxInFlight != 64 {
		t.Fatalf("carried MaxInFlight = %d, want the pinned 64", carry.MaxInFlight)
	}
}
