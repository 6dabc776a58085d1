package experiments

import (
	"fmt"
	"testing"
	"time"

	"clockwork"
	"clockwork/internal/rng"
)

// BenchmarkPlacementSchedulerThroughput measures the whole simulated
// system's wall-clock cost per request — submission, the client hops,
// the controller's scheduling passes, the workers and the result hops —
// at 16,384 models on a 32×2-GPU cluster, for 1, 4 and 16 placement
// groups. Each iteration submits one Zipf-drawn request and the engine
// is paced so queues stay realistic. The group count moves the cost
// through the LOAD passes alone: with N groups a request's OnRequest
// visits the 64/N GPUs of its model's group, and bestLoad consults that
// group's candidates. EXPERIMENTS.md records the measured figures.
//
// Run with:
//
//	go test ./internal/experiments -run xxx -bench PlacementSchedulerThroughput -benchtime 20000x
func BenchmarkPlacementSchedulerThroughput(b *testing.B) {
	for _, groups := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("groups-%d", groups), func(b *testing.B) {
			benchPlacementSubmit(b, groups, 16384, 32, 2)
		})
	}
}

func benchPlacementSubmit(b *testing.B, groups, models, workers, gpus int) {
	sys, err := clockwork.New(clockwork.Config{
		Workers:          workers,
		GPUsPerWorker:    gpus,
		Shards:           groups,
		Seed:             1,
		ExactTiming:      true,
		ZeroLengthInputs: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	names := registerScaleModels(sys, models)
	pickModel := zipfPicker(models, 0.9, names)
	pick := rng.NewSource(1).Stream("bench.models")
	submit := func() {
		sys.SubmitRequest(clockwork.Request{Model: pickModel(pick), SLO: 100 * time.Millisecond}, nil)
	}
	// Warm the page caches and profile windows before measuring.
	for i := 0; i < 2000; i++ {
		submit()
		if (i+1)%100 == 0 {
			sys.RunFor(25 * time.Millisecond)
		}
	}
	sys.RunFor(time.Second)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
		// Pace at 4,000 r/s of virtual time so the measured loop is the
		// steady-state submit+schedule+execute path, not unbounded
		// queue growth.
		if (i+1)%100 == 0 {
			sys.RunFor(25 * time.Millisecond)
		}
	}
	b.StopTimer()
	sys.RunFor(time.Second)
}
