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

// ExampleNew_sharded splits the GPUs into two placement groups: a
// worker's GPUs join group (worker ID mod 2), and each model is loaded
// only onto GPUs of the group its name hashes to. DemandSnapshot
// reports each group's schedulable GPUs and queued demand.
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
	for i, g := range sys.DemandSnapshot() {
		fmt.Printf("group %d: %d GPUs\n", i, g.SchedulableGPUs)
	}

	for round := 0; round < 4; round++ {
		for _, n := range names {
			sys.SubmitRequest(clockwork.Request{Model: n, SLO: 100 * time.Millisecond}, nil)
		}
		sys.RunFor(200 * time.Millisecond)
	}
	sum := sys.Summary()
	fmt.Printf("requests=%d answered=%d\n", sum.Arrived, sum.Requests)
	// Output:
	// group 0: 2 GPUs
	// group 1: 2 GPUs
	// requests=16 answered=16
}

// ExampleNew_shardsValidation: placement-group geometry is validated at
// construction — every group needs at least one worker.
func ExampleNew_shardsValidation() {
	_, err := clockwork.New(clockwork.Config{Workers: 1, Shards: 4})
	fmt.Println(err != nil, errors.Is(err, clockwork.ErrUnknownPolicy))
	// Output: true false
}
