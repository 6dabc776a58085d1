package journal_test

import (
	"maps"
	"slices"
	"testing"

	"clockwork"
	"clockwork/journal"
)

// committedEpoch is one journal an earlier build wrote, with what its
// replay and its recovery must reproduce.
type committedEpoch struct {
	dir  string
	hash string
	acks uint64
	// types counts the epoch's records by wire type byte: 1 genesis,
	// 2 infer, 3 ack, 4 register, 5 add worker, 6 drain, 7 fail,
	// 8 rebalance, 9 read (version 1 only), 10 snapshot marker,
	// 11 autoscale.
	types map[byte]int
	// What Rebuild restores: the registry, each worker's state, the
	// carried admission window, and how many control ops it re-applied
	// past the snapshot it started from.
	models       []string
	workers      []clockwork.WorkerState
	window       int
	appliedOps   int
	usedSnapshot bool
}

var committedEpochs = []committedEpoch{
	// admin was written by clockworkd (-workers 2 -gpus 1 -speed 100
	// -journal DIR -journal-fsync never -autoscale -autoscale-period
	// 1000h, so the loop never ticks on its own) driven over HTTP with,
	// in order:
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
	{
		dir:    "testdata/epochs/admin",
		hash:   "409616e517277a79aed27cf14fd93307d894fb9f3a1db0eda53fb2b08f4f3570",
		acks:   30,
		types:  map[byte]int{1: 1, 2: 30, 3: 30, 4: 2, 5: 1, 6: 1, 7: 1, 8: 1, 11: 1},
		models: []string{"a", "b#0", "b#1", "b#2"},
		workers: []clockwork.WorkerState{
			clockwork.WorkerDraining, clockwork.WorkerFailed, clockwork.WorkerActive,
		},
		window:     64,
		appliedOps: 7,
	},
	// reads was written by clockworkd (-workers 2 -gpus 1 -speed 100
	// -journal DIR -journal-fsync never -trace -trace-sample 1
	// -stream-addr ADDR -autoscale -autoscale-period 1000h) driven over
	// HTTP and one stream connection with, in order:
	//
	//	POST /v1/models {"instance":"a","zoo":"resnet50_v1b"}
	//	POST /v1/models {"instance":"b","zoo":"resnet18_v1","copies":2}
	//	8 × POST /v1/infer {"model":"a"}
	//	8 × stream infer b#0
	//	one stream batch of four: a, b#1, b#0, a
	//	GET /v1/stats, GET /metrics, GET /v1/models,
	//	a stream Models frame, GET /v1/admin/shards
	//	POST /v1/admin/snapshot
	//	GET /v1/admin/trace, POST /v1/admin/trace {}
	//	POST /v1/admin/workers               (worker 2)
	//	POST /v1/admin/workers/drain {"id":0}
	//	POST /v1/admin/autoscaler {"enabled":false,"window":16}
	//	6 × (stream infer b#1, POST /v1/infer {"model":"a"})
	//
	// then SIGTERM. Every infer used a 500 ms SLO. Each of the seven
	// reads is one read record; two of them follow the snapshot, which
	// recovery starts from, and are not counted as applied ops. admin
	// and reads are version-1 epochs: every barrier took an engine step.
	{
		dir:    "testdata/epochs/reads",
		hash:   "781f05e6b09b762c5b87550b63b9dc11df8edd9981c1b06383e8d14b01ef0442",
		acks:   32,
		types:  map[byte]int{1: 1, 2: 32, 3: 32, 4: 2, 5: 1, 6: 1, 9: 7, 10: 1, 11: 1},
		models: []string{"a", "b#0", "b#1"},
		workers: []clockwork.WorkerState{
			clockwork.WorkerDraining, clockwork.WorkerActive, clockwork.WorkerActive,
		},
		window:       16,
		appliedOps:   3,
		usedSnapshot: true,
	},
	// between is a version-2 epoch: its barriers ran between engine
	// steps and took none, and its reads left no record. It was written
	// by clockworkd (-workers 2 -gpus 1 -speed 1 -journal DIR
	// -journal-fsync never -trace -trace-sample 1 -stream-addr ADDR
	// -autoscale -autoscale-period 1000h) driven over HTTP and one
	// stream connection:
	//
	//	POST /v1/models {"instance":"a","zoo":"resnet50_v1b"}
	//	POST /v1/models {"instance":"b","zoo":"resnet18_v1","copies":2}
	//
	// then fifteen rounds, each a stream batch (a, b#0, b#1, a) and a
	// POST /v1/infer {"model":"a"} sent together, then 1 ms later, with
	// those requests in flight, one of, in order:
	//
	//	GET /v1/stats, GET /metrics, GET /v1/models,
	//	a stream Models frame, GET /v1/admin/shards,
	//	GET /v1/admin/trace, POST /v1/admin/trace {},
	//	POST /v1/models {"instance":"c","zoo":"resnet18_v1"}
	//	POST /v1/admin/workers               (worker 2)
	//	POST /v1/admin/workers/drain {"id":0}
	//	POST /v1/admin/snapshot
	//	POST /v1/admin/workers/fail {"id":1}
	//	POST /v1/admin/rebalance
	//	POST /v1/admin/autoscaler {"enabled":false,"window":16}
	//	GET /v1/stats
	//
	// then SIGTERM. Every infer used a 500 ms SLO. Each op and the
	// snapshot marker sent during the rounds landed with that round's
	// five requests in flight; the three ops after the snapshot are the
	// ones recovery re-applies.
	{
		dir:    "testdata/epochs/between",
		hash:   "4da11deb27009950f7df016a63e53d609784dc5ffd735486a5925a2074d05e4e",
		acks:   75,
		types:  map[byte]int{1: 1, 2: 75, 3: 75, 4: 3, 5: 1, 6: 1, 7: 1, 8: 1, 10: 1, 11: 1},
		models: []string{"a", "b#0", "b#1", "c"},
		workers: []clockwork.WorkerState{
			clockwork.WorkerDraining, clockwork.WorkerFailed, clockwork.WorkerActive,
		},
		window:       16,
		appliedOps:   3,
		usedSnapshot: true,
	},
}

// TestCommittedEpochReplays reads journals earlier builds wrote: replay
// must reproduce each recorded ack stream bit-for-bit, and recovery
// must restore the registry, the worker set and the pinned admission
// window. A change that moves any of these either breaks replay of
// existing journals or must re-record the fixture and say why.
func TestCommittedEpochReplays(t *testing.T) {
	for _, fx := range committedEpochs {
		t.Run(fx.dir, func(t *testing.T) {
			ep, err := journal.Load(fx.dir)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if ep.Truncated {
				t.Fatalf("committed epoch reads truncated: %s", ep.TruncatedNote)
			}
			types := map[byte]int{}
			for i := range ep.Records {
				types[ep.Records[i].Type]++
			}
			if !maps.Equal(types, fx.types) {
				t.Fatalf("records by type = %v, want %v", types, fx.types)
			}
			res, err := journal.ReplayEpoch(ep)
			if err != nil {
				t.Fatalf("ReplayEpoch: %v", err)
			}
			if !res.Match || res.RecordedHash != fx.hash || res.RecordedAcks != fx.acks {
				t.Fatalf("committed epoch: match=%v acks=%d/%d\n recorded  %s\n replayed  %s\n committed %s (%d acks)",
					res.Match, res.RecordedAcks, res.ReplayedAcks, res.RecordedHash, res.ReplayedHash,
					fx.hash, fx.acks)
			}

			sys, carry, rep, err := ep.Rebuild()
			if err != nil {
				t.Fatalf("Rebuild: %v", err)
			}
			if got := sys.Models(); !slices.Equal(got, fx.models) {
				t.Fatalf("rebuilt models = %v, want %v", got, fx.models)
			}
			if rep.Workers != len(fx.workers) || sys.Workers() != len(fx.workers) {
				t.Fatalf("rebuilt %d workers (report %d), want %d", sys.Workers(), rep.Workers, len(fx.workers))
			}
			for id, want := range fx.workers {
				if got, err := sys.WorkerStateOf(id); err != nil || got != want {
					t.Fatalf("rebuilt worker %d state = %v, %v; want %v", id, got, err, want)
				}
			}
			if carry.MaxInFlight != fx.window {
				t.Fatalf("carried MaxInFlight = %d, want the pinned %d", carry.MaxInFlight, fx.window)
			}
			if rep.AppliedOps != fx.appliedOps || rep.UsedSnapshot != fx.usedSnapshot {
				t.Fatalf("recovery applied %d ops (snapshot %v), want %d (snapshot %v)",
					rep.AppliedOps, rep.UsedSnapshot, fx.appliedOps, fx.usedSnapshot)
			}
		})
	}
}
