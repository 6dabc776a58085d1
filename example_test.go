package clockwork_test

// Runnable documentation: these examples execute under `go test` with
// their output checked against the "Output:" comments, so the docs in
// README/ARCHITECTURE can never drift from the real API. Everything
// here uses ExactTiming and fixed seeds — the virtual clock makes the
// output deterministic by construction.

import (
	"errors"
	"fmt"
	"time"

	"clockwork"
)

// ExampleSystem_SubmitRequest is the canonical request round-trip:
// register a model, submit with an SLO, advance the virtual clock,
// read the typed outcome.
func ExampleSystem_SubmitRequest() {
	sys, err := clockwork.New(clockwork.Config{Workers: 1, GPUsPerWorker: 1, ExactTiming: true})
	if err != nil {
		panic(err)
	}
	sys.RegisterModel("my-resnet", "resnet50_v1b")

	h, err := sys.SubmitRequest(clockwork.Request{
		Model: "my-resnet",
		SLO:   100 * time.Millisecond,
	}, func(r clockwork.Result) {
		fmt.Printf("success=%v cold=%v batch=%d\n", r.Success, r.ColdStart, r.Batch)
	})
	if err != nil {
		panic(err)
	}
	sys.RunFor(time.Second)

	res, done := h.Outcome()
	fmt.Printf("done=%v reason=%q\n", done, res.Reason)
	// Output:
	// success=true cold=true batch=1
	// done=true reason=""
}

// ExampleNew_sharded partitions the control plane into two scheduler
// shards and shows the shard control plane: consistent ownership,
// manual migration, and per-shard accounting that always sums to the
// whole.
func ExampleNew_sharded() {
	sys, err := clockwork.New(clockwork.Config{
		Workers:       4,
		GPUsPerWorker: 1,
		Shards:        2,
		ExactTiming:   true,
	})
	if err != nil {
		panic(err)
	}
	names, _ := sys.RegisterCopies("resnet", "resnet50_v1b", 4)
	for _, n := range names {
		shard, _ := sys.ShardOf(n)
		fmt.Printf("%s -> shard %d\n", n, shard)
	}

	for round := 0; round < 4; round++ {
		for _, n := range names {
			sys.SubmitRequest(clockwork.Request{Model: n, SLO: 100 * time.Millisecond}, nil)
		}
		sys.RunFor(200 * time.Millisecond)
	}

	// Move one model by hand (the periodic rebalancer does this
	// automatically when per-shard demand skews).
	if err := sys.MigrateModel("resnet#0", 0); err != nil {
		panic(err)
	}
	shard, _ := sys.ShardOf("resnet#0")
	fmt.Printf("resnet#0 migrated to shard %d (migrations=%d)\n", shard, sys.Migrations())

	var binned uint64
	for i := 0; i < sys.ShardCount(); i++ {
		st, _ := sys.ShardStats(i)
		binned += st.Requests
	}
	fmt.Printf("requests=%d binned=%d\n", sys.Summary().Arrived, binned)
	// Output:
	// resnet#0 -> shard 1
	// resnet#1 -> shard 0
	// resnet#2 -> shard 1
	// resnet#3 -> shard 0
	// resnet#0 migrated to shard 0 (migrations=1)
	// requests=16 binned=16
}

// ExampleNew_shardsValidation: shard geometry is validated at
// construction — every shard needs at least one worker.
func ExampleNew_shardsValidation() {
	_, err := clockwork.New(clockwork.Config{Workers: 1, Shards: 4})
	fmt.Println(err != nil, errors.Is(err, clockwork.ErrUnknownPolicy))
	// Output: true false
}
