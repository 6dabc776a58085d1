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
// answering from its empty sets and flushing the GPUs a demand change
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
// every one bestLoad, the flush and reindexModel make) on a
// 16-GPU cluster serving 1,024 Zipf instances of the zoo, at about 10%
// and about 85% of capacity, and fails if a request at the high point
// costs more than 4× one at the low point. Before the nothing-to-load
// gate the demand walk evaluated every active model, for every GPU, on
// every event: 22 evaluations per request at the low point and 1,266 at
// the high one (2.1 and 4.5 with the gate in front of that walk; 2.0
// and 2.9 now that bestLoad reads the gate's own sets). The count is a
// pure function of the seed. A further half second at twice the high
// rate — an overload burst, in which replicated models do go positive —
// then checks every GPU's selection on its own: after the flush it
// evaluates no more priorities than the positive set holds.
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
	// priorities really are positive and bestLoad rightly evaluates them.
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

	c, s := cl.Ctl, cl.Ctl.schd.(*ClockworkScheduler)
	zipfWorkload(cl, 5, names, 0.9, 9000, 10*time.Second, 10500*time.Millisecond)
	calls, positive := 0, 0
	for steps := 0; c.Now() < simclock.Time(10500*time.Millisecond) && cl.Eng.Step(); steps++ {
		if steps%7 != 0 {
			continue
		}
		c.flushLoadSigns()
		for _, g := range c.gpus {
			evals := c.priorityEvals
			s.bestLoad(g, c.Now())
			if n := c.priorityEvals - evals; n > uint64(len(c.posSet)) {
				t.Fatalf("t=%v: bestLoad on w%d.g%d evaluated %d priorities with %d models in the positive set", c.Now(), g.WorkerID, g.GPU, n, len(c.posSet))
			}
			calls++
			positive += len(c.posSet)
		}
	}
	if positive == 0 {
		t.Fatalf("%d bestLoad calls, none with a positive model to evaluate", calls)
	}
	t.Logf("burst: %d bestLoad calls, %.2f positive models per call", calls, float64(positive)/float64(calls))
}

// TestOnRequestWorkFlatInGPUs is the ratchet on OnRequest's reach: the
// GPUs it runs a pass on per request (ClockworkScheduler.visits) must
// not grow with the cluster. Two clusters at the same load per GPU —
// about half of capacity — and with the same number of Zipf instances
// of the zoo per GPU, 64: 16 GPUs with 1,024 models and 128 GPUs with
// 8,192. A request at 128 GPUs may cost at most 2× the passes of one
// at 16. The seed's loop gave every GPU a pass on every request (8×);
// with the skip rule a request costs its replicas, plus the GPUs where
// a LOAD pass can act (1.55 and 2.23 passes). The count is a pure
// function of the seed.
func TestOnRequestWorkFlatInGPUs(t *testing.T) {
	if testing.Short() {
		t.Skip("work ratchet skipped in -short")
	}
	perReq := func(workers int) float64 {
		cl := NewCluster(ClusterConfig{Workers: workers, GPUsPerWorker: 2, Seed: 1, ZeroLengthInputs: true})
		gpus := 2 * workers
		zoo := modelzoo.All()
		names := make([]string, 64*gpus)
		for i := range names {
			z := zoo[i%len(zoo)]
			names[i] = fmt.Sprintf("%s#%d", z.Name, i/len(zoo))
			if err := cl.RegisterModel(names[i], z); err != nil {
				t.Fatal(err)
			}
		}
		zipfWorkload(cl, 1, names, 0.9, 165*float64(gpus), 0, 3*time.Second)
		cl.RunUntil(simclock.Time(time.Second)) // warm-up
		s := cl.Ctl.schd.(*ClockworkScheduler)
		visits, reqs := s.visits, cl.Ctl.stats.Requests
		cl.RunUntil(simclock.Time(3 * time.Second))
		reqs = cl.Ctl.stats.Requests - reqs
		n := float64(s.visits-visits) / float64(reqs)
		t.Logf("%d GPUs: %d requests, %.2f GPU passes per request", gpus, reqs, n)
		return n
	}
	if small, large := perReq(8), perReq(64); large > 2*small {
		t.Fatalf("OnRequest runs %.2f GPU passes per request on 128 GPUs against %.2f on 16: more than 2×, so its work grows with the cluster again", large, small)
	}
}

// TestAllocRatchetSubmit pins what a request costs on the one submission
// path, submit plus run to completion, for each of its completion forms
// on a warm model — a pooled sink, a Handle released after its outcome,
// and a ResponseFunc — and for a cold start. Each must stay under its
// ceiling. The closure form used to mint a pooled Handle nobody
// released, and paid 2 allocations per request for it.
//
// The cold-start case alternates between two ResNet50 instances on one
// GPU whose page cache holds one and a half of them, so every request
// is LOAD + UNLOAD + EXEC. It pays the two actions it mints, the LOAD
// and the UNLOAD (2.00); the LOAD's weight-transfer completion must
// allocate nothing.
func TestAllocRatchetSubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ratchet skipped in -short")
	}
	newCluster := func(pageCache int64, names ...string) *Cluster {
		cl := NewCluster(ClusterConfig{Workers: 1, GPUsPerWorker: 1, Seed: 1, PageCacheBytes: pageCache})
		for _, name := range names {
			if err := cl.RegisterModel(name, modelzoo.ResNet50()); err != nil {
				t.Fatal(err)
			}
		}
		return cl
	}
	warm := newCluster(0, "m")
	cold := newCluster(3*modelzoo.ResNet50().WeightsBytes()/2, "a", "b")
	sink := &countingSink{}
	fn := ResultFunc(func(Result) { sink.n++ })
	submit := func(cl *Cluster, model string, s ResultSink, run time.Duration) {
		if err := cl.Submit(SubmitSpec{Model: model, SLO: 100 * time.Millisecond}, s); err != nil {
			t.Fatal(err)
		}
		cl.RunFor(run)
	}
	const warmRun = 20 * time.Millisecond // a warm request completes in ~4 ms
	coldModels := [2]string{"a", "b"}
	next := 0
	for _, p := range []struct {
		name    string
		cl      *Cluster
		ceiling float64
		op      func()
	}{
		{"sink", warm, 0.5, func() { submit(warm, "m", sink, warmRun) }},
		{"Handle with Release", warm, 0.5, func() {
			h := NewHandle(nil)
			submit(warm, "m", h, warmRun)
			if !h.Done() {
				t.Fatal("request did not complete")
			}
			h.Release()
		}},
		{"ResponseFunc", warm, 0.5, func() { submit(warm, "m", fn, warmRun) }},
		{"cold start", cold, 2.5, func() {
			next ^= 1
			submit(cold, coldModels[next], sink, 100*time.Millisecond)
		}},
	} {
		t.Run(p.name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				p.op() // warm the pools, the models and the metrics tables
			}
			before := p.cl.Metrics.Total
			avg := testing.AllocsPerRun(500, p.op)
			after := p.cl.Metrics.Total
			if avg > p.ceiling {
				t.Fatalf("submit plus completion allocates %.2f objects per request, ratchet ceiling is %.2f", avg, p.ceiling)
			}
			if p.cl == cold {
				if n, c := after.Requests-before.Requests, after.ColdStarts-before.ColdStarts; n == 0 || c != n {
					t.Fatalf("%d of %d measured requests were cold starts, want all", c, n)
				}
			}
			t.Logf("%.2f allocations per request", avg)
		})
	}
	if sink.n == 0 {
		t.Fatal("no outcome reached a sink")
	}
}

// countingSink counts the outcomes a run delivered.
type countingSink struct{ n int }

func (s *countingSink) OnResult(Result) { s.n++ }

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
	cl.Ctl.tab.onResolve = func() { resolved++ }

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
			if err := cl.Submit(SubmitSpec{Model: names[zipf.Draw()], SLO: 100 * time.Millisecond}, sink); err != nil {
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
