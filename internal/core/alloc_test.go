package core

import (
	"fmt"
	"testing"
	"time"

	"clockwork/internal/modelzoo"
	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

// TestAllocRatchetSchedulerPass pins the decision path: one strategy
// pick plus one load pick against 100 active models must not allocate.
// The indexed scheduler reads heaps and treaps maintained incrementally
// by controller events; a pass that starts allocating means someone
// re-introduced per-decision garbage (slice rebuilds, closure captures)
// into the hottest loop in the controller.
//
// The spread state (16 GPUs, every active model replicated, nothing
// loadable) holds the nothing-to-load gate to the same ceiling, both
// answering from its counters and flushing the GPUs a demand change
// dirtied.
func TestAllocRatchetSchedulerPass(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ratchet skipped in -short")
	}
	const ceiling = 0.5
	check := func(state string, pass func()) {
		t.Helper()
		pass() // warm any lazily-built index state
		if avg := testing.AllocsPerRun(500, pass); avg > ceiling {
			t.Fatalf("%s: scheduler pass allocates %.2f objects/op, ratchet ceiling is %.2f", state, avg, ceiling)
		}
	}
	s, g, now := benchState(100, 100, 4)
	check("one GPU, all resident", func() {
		s.bestStrategy(g, now)
		s.bestLoad(g, now)
	})
	s, g, mi, now := spreadState(100)
	check("spread", func() {
		s.bestStrategy(g, now)
		s.bestLoad(g, now)
	})
	i := 0
	check("spread, dirtied", func() {
		nudgeDemand(s.c, mi, i)
		i++
		s.bestStrategy(g, now)
		s.bestLoad(g, now)
	})
}

// TestLoadSelectionWorkFlatInLoad is the machine-independent ratchet on
// what BenchmarkSchedulerPass could not see while it only built
// single-GPU states: LOAD selection's work *per request* as load grows.
// It counts exact load-priority evaluations (Controller.priorityEvals —
// every one the walk, the gate's flush and reindexModel make) on a
// 16-GPU cluster serving 1,024 Zipf instances of the zoo, at about 10%
// and about 85% of capacity, and fails if a request at the high point
// costs more than 4× one at the low point. Before the nothing-to-load
// gate the demand walk evaluated every active model, for every GPU, on
// every event: 22 evaluations per request at the low point and 1,266 at
// the high one (2.1 and 4.5 with it). The count is a pure function of
// the seed.
func TestLoadSelectionWorkFlatInLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("work ratchet skipped in -short")
	}
	cl := NewCluster(ClusterConfig{Workers: 8, GPUsPerWorker: 2, Seed: 1, ZeroLengthInputs: true})
	zoo := modelzoo.All()
	names := make([]string, 1024)
	for i := range names {
		z := zoo[i%len(zoo)]
		names[i] = fmt.Sprintf("%s#%d", z.Name, i/len(zoo))
		if err := cl.RegisterModel(names[i], z); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up fills page caches and profile windows; then the two
	// measured points. Capacity is about 5,300 r/s (bench/sim.go). The
	// ramp gives replication two seconds to catch up with the ninefold
	// rate step, so that hi measures the loaded steady state and not the
	// transition, in which hot models really are under-replicated,
	// priorities really are positive and the walk rightly runs.
	phases := []struct {
		name     string
		rate     float64
		from, to time.Duration
	}{
		{"warm", 1500, 0, 3 * time.Second},
		{"lo", 530, 3 * time.Second, 6 * time.Second},
		{"ramp", 4500, 6 * time.Second, 8 * time.Second},
		{"hi", 4500, 8 * time.Second, 10 * time.Second},
	}
	perReq := map[string]float64{}
	for i, ph := range phases {
		zipfWorkload(cl, uint64(i+1), names, 0.9, ph.rate, ph.from, ph.to)
		evals, reqs := cl.Ctl.priorityEvals, cl.Ctl.stats.Requests
		cl.RunUntil(simclock.Time(ph.to))
		reqs = cl.Ctl.stats.Requests - reqs
		if reqs == 0 {
			t.Fatalf("%s: no requests", ph.name)
		}
		perReq[ph.name] = float64(cl.Ctl.priorityEvals-evals) / float64(reqs)
		t.Logf("%s: %d requests, %.1f priority evaluations per request", ph.name, reqs, perReq[ph.name])
	}
	if lo, hi := perReq["lo"], perReq["hi"]; hi > 4*lo {
		t.Fatalf("load selection costs %.1f priority evaluations per request at ~85%% load against %.1f at ~10%%: more than 4×, so its work grows with load again", hi, lo)
	}
}

// countingSink counts the outcomes a run delivered.
type countingSink struct{ n int }

func (s *countingSink) OnResponse(Response, time.Duration) { s.n++ }

// TestModelNameResolvedOncePerRequest is the structural guard on "names
// at the edges, IDs inside": a request's model name goes through the
// model table's by-name lookup once, when it is submitted, and nothing
// the request then touches — delivery, the scheduler, the mirrors, the
// workers, the profile, the response hop, the metrics — resolves a name
// again. The run is the cold-tail golden's configuration (16 GPUs, 1,024
// Zipf instances, 12 GB caches, 1 s at 1,500 r/s then 2 s at 4,500), so
// LOADs, evictions, batching, admission cancels and timeouts all happen
// under the count.
func TestModelNameResolvedOncePerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("work ratchet skipped in -short")
	}
	cl := NewCluster(ClusterConfig{
		Workers: 8, GPUsPerWorker: 2, Seed: 1, ZeroLengthInputs: true,
		PageCacheBytes: 12 << 30,
	})
	zoo := modelzoo.All()
	names := make([]string, 1024)
	for i := range names {
		z := zoo[i%len(zoo)]
		names[i] = fmt.Sprintf("%s#%d", z.Name, i/len(zoo))
		if err := cl.RegisterModel(names[i], z); err != nil {
			t.Fatal(err)
		}
	}
	resolved := 0
	cl.models.onResolve = func() { resolved++ }

	stream := rng.NewSource(1).Stream("resolve-ratchet")
	zipf := stream.Zipf(0.9, len(names))
	sink := &countingSink{}
	sent, inEngine := 0, 0
	run := func(to time.Duration) {
		n := resolved
		cl.RunUntil(simclock.Time(to))
		inEngine += resolved - n
	}
	var base time.Duration
	var before Stats
	for p, ph := range []struct {
		dur  time.Duration
		rate float64
	}{{time.Second, 1500}, {2 * time.Second, 4500}} {
		if p == 1 {
			before = cl.Stats()
		}
		gap := func() time.Duration { return time.Duration(stream.Exp(1/ph.rate) * float64(time.Second)) }
		for at := gap(); at < ph.dur; at += gap() {
			run(base + at)
			if err := cl.SubmitRequestSinkOn(0, SubmitSpec{Model: names[zipf.Draw()], SLO: 100 * time.Millisecond}, sink); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		base += ph.dur
		run(base)
	}
	after := cl.Stats()
	run(base + time.Second) // drain: SLO ≪ 1 s

	if sink.n != sent {
		t.Fatalf("sent %d, completed %d", sent, sink.n)
	}
	if loads, unloads := after.ActionsLoad-before.ActionsLoad, after.ActionsUnload-before.ActionsUnload; loads == 0 || unloads == 0 {
		t.Fatalf("hi phase issued %d LOADs and %d UNLOADs; the count must cover both", loads, unloads)
	}
	if inEngine != 0 {
		t.Fatalf("%d name resolutions while the engine ran: some scheduler, worker or metrics path looks a model up by name again", inEngine)
	}
	if resolved > sent {
		t.Fatalf("%d name resolutions for %d submitted requests: more than one per request", resolved, sent)
	}
	t.Logf("%d requests, %d name resolutions, 0 inside the engine", sent, resolved)
}
