package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"clockwork/internal/action"
	"clockwork/internal/modelzoo"
	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

// randomWorkload drives a cluster with a randomized open-loop workload:
// nModels models with Zipf-skewed popularity, exponential inter-arrival
// gaps, and SLOs drawn from a small menu, for the given span.
func randomWorkload(cl *Cluster, seed uint64, nModels int, rate float64, span time.Duration) {
	names, _ := cl.RegisterCopies("m", modelzoo.ResNet50(), nModels)
	stream := rng.NewSource(seed).Stream("index-test")
	zipf := stream.Zipf(1.2, len(names))
	slos := []time.Duration{
		15 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond,
	}
	stop := simclock.Time(span)
	var arrival func()
	arrival = func() {
		gap := time.Duration(stream.Exp(1.0/rate) * float64(time.Second))
		cl.Eng.ScheduleRun(cl.Eng.Now().Add(gap), simclock.Func(func() {
			if cl.Eng.Now() >= stop {
				return
			}
			submitFn(cl, names[zipf.Draw()], slos[stream.Intn(len(slos))], nil)
			arrival()
		}))
	}
	arrival()
}

// TestSchedulerNeverDispatchesLateInfer asserts the paper's core
// guarantee at the moment of decision: the Clockwork scheduler never
// dispatches an INFER whose estimated completion misses the deadline of
// any request in the batch (§4.1 — workers do no fruitless work).
func TestSchedulerNeverDispatchesLateInfer(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			cl := NewCluster(ClusterConfig{
				Workers: 1, GPUsPerWorker: 2, Seed: seed,
				// Small cache forces load/unload churn under deadline
				// pressure, the hardest regime for the invariant.
				PageCacheBytes: 12 * 7 * 16 * 1024 * 1024,
			})
			dispatched := 0
			cl.Ctl.testOnInfer = func(a *action.Action, reqs []*Request) {
				dispatched++
				for _, r := range reqs {
					if a.ExpectedCompletion > r.deadline {
						t.Fatalf("INFER %d (%s b%d) predicted to complete at %v, after request %d's deadline %v",
							a.ID, a.Model, a.Batch, a.ExpectedCompletion, r.ID, r.deadline)
					}
				}
			}
			randomWorkload(cl, seed, 24, 800, 3*time.Second)
			cl.RunFor(4 * time.Second)
			if dispatched == 0 {
				t.Fatal("workload dispatched no INFERs; invariant never exercised")
			}
		})
	}
}

// TestIndexedSelectionMatchesLinear replays randomized workloads and, at
// every compared engine step, checks the index-based strategy / load /
// victim selection against the seed's linear scans on identical state —
// on pointer identity, the oracles breaking ties the way the indexes
// document — together with everything the selection rests on: the
// load-candidate sets against a from-scratch recount, the
// replica lists against the mirrors' own residency, ℓ_g against its
// rebuild, and the page-cache mirrors' internal invariants.
//
// Two families of state. The small one ("seed-N") is one worker with
// two GPUs and 16 models, where most active models are cold or resident on the asking
// GPU. "spread" is the regime the gate exists for: two shards of eight
// GPUs each, 256 Zipf models whose hot head replicates across GPUs and
// whose cold tail cycles through page caches too small to hold it, with
// control-plane churn mid-run — a worker failing, one draining, one
// joining, hot models unregistered and migrated between the shards.
// In both, every GPU OnRequest skips is audited (auditSkips).
func TestIndexedSelectionMatchesLinear(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { // the small state
			t.Parallel()
			cl := NewCluster(ClusterConfig{
				Workers: 1, GPUsPerWorker: 2, Seed: seed,
				PageCacheBytes: 10 * 7 * 16 * 1024 * 1024,
			})
			auditSkips(t, cl)
			randomWorkload(cl, seed, 16, 600, 2*time.Second)
			runCompared(t, cl, 3*time.Second, 7, nil)
		})
	}
	for seed := uint64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("spread/seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			cl := NewCluster(ClusterConfig{
				Workers: 8, GPUsPerWorker: 2, Shards: 2, Seed: seed,
				// 14 ResNet50s per GPU: the 16 GPUs together hold fewer
				// replicas than there are models, so the tail cycles.
				PageCacheBytes: 14 * 7 * 16 * 1024 * 1024,
			})
			skipped := auditSkips(t, cl)
			names, _ := cl.RegisterCopies("m", modelzoo.ResNet50(), 256)
			zipfWorkload(cl, seed, names, 0.9, 3500, 0, 1500*time.Millisecond)
			// A 150 ms overload burst on top: demand outruns the hosting
			// GPUs while the LOAD executors are busy, so replicated models
			// with a positive priority persist across events.
			zipfWorkload(cl, seed+100, names, 0.9, 9000, 1100*time.Millisecond, 1250*time.Millisecond)

			// Control-plane churn, each step retried until its
			// preconditions hold (a busy model cannot be unregistered;
			// ErrModelBusy means try again later).
			type step struct {
				at simclock.Time
				do func() bool
			}
			ms := func(n int) simclock.Time { return simclock.Time(time.Duration(n) * time.Millisecond) }
			churn := []step{
				{ms(300), func() bool { return cl.FailWorker(1) == nil }},
				{ms(450), func() bool { return cl.DrainWorker(2) == nil }},
				{ms(600), func() bool { cl.AddWorker(); return true }},
				{ms(700), func() bool { return cl.UnregisterModel(names[0]) == nil }},
				{ms(850), func() bool { return cl.UnregisterModel(names[40]) == nil }},
				{ms(950), func() bool { return cl.FailWorker(4) == nil }},
			}
			done := 0
			n := runCompared(t, cl, 1800*time.Millisecond, 13, func() {
				for i := range churn {
					if st := &churn[i]; st.do != nil && cl.Eng.Now() >= st.at && st.do() {
						st.do = nil
						done++
					}
				}
			})
			if done != len(churn) {
				t.Fatalf("only %d of %d churn steps ran", done, len(churn))
			}
			if n.gated == 0 || n.picked == 0 || n.positive == 0 {
				t.Fatalf("the run must exercise the gate, the selection and positive replicated models, got %+v", n)
			}
			if *skipped == 0 {
				t.Fatal("OnRequest skipped no GPU; the skip audit never ran")
			}
			t.Logf("%d skipped GPU passes audited, %+v", *skipped, n)
			st := cl.Stats()
			if st.ActionsLoad == 0 || st.ActionsUnload == 0 {
				t.Fatalf("%d LOADs, %d UNLOADs: the cold tail did not cycle", st.ActionsLoad, st.ActionsUnload)
			}
		})
	}
	for seed := uint64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("stranded/seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			// Group 1 (workers 1 and 3) loses both workers and its models
			// are loaded onto group 0's GPUs; two added workers (4 and 5)
			// give each group a GPU more, and group 1's models go back
			// to loading in their own group while replicas outside it
			// remain.
			cl := NewCluster(ClusterConfig{
				Workers: 4, GPUsPerWorker: 2, Shards: 2, Seed: seed,
				PageCacheBytes: 14 * 7 * 16 * 1024 * 1024,
			})
			skipped := auditSkips(t, cl)
			names, _ := cl.RegisterCopies("m", modelzoo.ResNet50(), 128)
			zipfWorkload(cl, seed, names, 0.9, 2000, 0, 1500*time.Millisecond)
			type step struct {
				at simclock.Time
				do func() bool
			}
			ms := func(n int) simclock.Time { return simclock.Time(time.Duration(n) * time.Millisecond) }
			churn := []step{
				{ms(300), func() bool { return cl.DrainWorker(1) == nil }},
				{ms(450), func() bool { return cl.FailWorker(3) == nil }},
				{ms(900), func() bool { cl.AddWorker(); cl.AddWorker(); return true }},
			}
			done, outside := 0, 0
			n := runCompared(t, cl, 1800*time.Millisecond, 11, func() {
				for i := range churn {
					if st := &churn[i]; st.do != nil && cl.Eng.Now() >= st.at && st.do() {
						st.do = nil
						done++
					}
				}
				for _, g := range cl.Ctl.gpus {
					outside = max(outside, g.foreign)
				}
			})
			if done != len(churn) {
				t.Fatalf("only %d of %d churn steps ran", done, len(churn))
			}
			if outside == 0 || n.picked == 0 || *skipped == 0 {
				t.Fatalf("the run must place models outside their group, select loads and skip passes: %d outside, %d skips, %+v", outside, *skipped, n)
			}
			t.Logf("up to %d models outside their group on one GPU, %d skips, %+v", outside, *skipped, n)
		})
	}
}

// zipfWorkload drives an open-loop Poisson workload over names with
// Zipf(exp) popularity (names[0] hottest) and a 100 ms SLO between the
// virtual instants from and to. Submissions to a model the test has
// since unregistered are dropped.
func zipfWorkload(cl *Cluster, seed uint64, names []string, exp, rate float64, from, to time.Duration) {
	stream := rng.NewSource(seed).Stream("index-test-zipf")
	zipf := stream.Zipf(exp, len(names))
	stop := simclock.Time(to)
	var arrival func()
	arrival = func() {
		gap := time.Duration(stream.Exp(1.0/rate) * float64(time.Second))
		cl.Eng.ScheduleRun(cl.Eng.Now().Add(gap), simclock.Func(func() {
			if cl.Eng.Now() >= stop {
				return
			}
			_ = submitFn(cl, names[zipf.Draw()], 100*time.Millisecond, nil)
			arrival()
		}))
	}
	cl.Eng.ScheduleRun(simclock.Time(from), simclock.Func(arrival))
}

// auditSkips gives every GPU that OnRequest skips, at the point of the
// controller-order walk where the seed's every-GPU loop visited it, the
// pass that loop ran — scheduleLoads, then armWake — and fails if that
// pass sends an action or arms a wake: the skip rule claims it does
// neither. It returns the number of skips audited.
func auditSkips(t *testing.T, cl *Cluster) *int {
	n := new(int)
	{
		ctl, s := cl.Ctl, cl.Ctl.schd.(*ClockworkScheduler)
		s.testOnSkip = func(g *GPUMirror) {
			*n++
			wake := func() simclock.Timer {
				if g.wake == nil {
					return simclock.Timer{}
				}
				return g.wake.tmr
			}
			st, w := ctl.stats, wake()
			s.scheduleLoads(g)
			s.armWake(g)
			if ctl.stats != st {
				t.Fatalf("t=%v: skipped w%d.g%d: its pass sends actions (LOAD %d→%d, UNLOAD %d→%d)", ctl.Now(),
					g.WorkerID, g.GPU, st.ActionsLoad, ctl.stats.ActionsLoad, st.ActionsUnload, ctl.stats.ActionsUnload)
			}
			if wake() != w {
				t.Fatalf("t=%v: skipped w%d.g%d: its pass arms a wake at %v (pending before: %v at %v)", ctl.Now(),
					g.WorkerID, g.GPU, g.wake.tmr.When(), w.Pending(), w.When())
			}
		}
	}
	return n
}

// runCompared steps cl's engine to `until`, calling between (when
// non-nil) after every step and comparing the selections on every
// `every`-th.
func runCompared(t *testing.T, cl *Cluster, until time.Duration, every int, between func()) (n compareTally) {
	t.Helper()
	stop := simclock.Time(until)
	steps, compared := 0, 0
	for cl.Eng.Now() < stop && cl.Eng.Step() {
		if between != nil {
			between()
		}
		steps++
		if steps%every != 0 {
			continue
		}
		compared++
		now := cl.Eng.Now()
		ctl := cl.Ctl
		s := ctl.schd.(*ClockworkScheduler)
		if compareControllerState(t, ctl, now) {
			n.positive++
		}
		for _, g := range ctl.GPUs() {
			if g.disabled {
				continue // schedulers never select for a detached mirror
			}
			switch walked, load := compareSelections(t, s, g, now); {
			case !walked:
				n.gated++
			case load == nil:
				n.walkedNil++
			default:
				n.picked++
			}
		}
	}
	if compared == 0 {
		t.Fatal("no comparison points")
	}
	return n
}

// compareTally says what a compared run exercised.
type compareTally struct {
	gated     int // load selections the gate answered with nil
	walkedNil int // … the candidates answered with nil
	picked    int // … that selected a model
	positive  int // controller states holding a replicated model with p_m > 0
}

// compareControllerState checks the per-controller structures load
// selection reads, and reports whether some replicated model has a
// positive priority (the state in which only exact arithmetic keeps the
// gate honest).
func compareControllerState(t *testing.T, c *Controller, now simclock.Time) (positive bool) {
	t.Helper()

	// Incremental ℓ_g must equal a from-scratch rebuild.
	rebuilt := rebuildAllocDemand(c)
	for _, g := range c.GPUs() {
		if g.allocDemand != rebuilt[g] {
			t.Fatalf("t=%v: allocDemand[w%d.g%d] = %v, rebuild = %v",
				now, g.WorkerID, g.GPU, g.allocDemand, rebuilt[g])
		}
		if err := g.Pages.CheckInvariants(); err != nil {
			t.Fatalf("t=%v: w%d.g%d: %v", now, g.WorkerID, g.GPU, err)
		}
	}

	// The replica lists are the mirrors' residency, seen from the other
	// side (on enabled mirrors; a detached mirror keeps stale pages), and
	// the work lists are the resident models with queued requests.
	active, work := make([]int, len(c.groups)), make(map[*GPUMirror]int)
	outside, foreign := make(map[*ModelInfo]int), make(map[*GPUMirror]int)
	for _, mi := range c.modelList {
		if len(mi.queue) > 0 {
			active[mi.group]++
		}
		for _, g := range c.GPUs() {
			inWork := int(mi.id) < len(g.actions) && g.actions[mi.id].work != 0
			if inWork {
				work[g]++
				if g.withWork[g.actions[mi.id].work-1] != mi {
					t.Fatalf("t=%v: %s's withWork slot on w%d.g%d holds another model", now, mi.name, g.WorkerID, g.GPU)
				}
			}
			if mi.residentOnGPU(g) && g.group != mi.group {
				outside[mi]++
				foreign[g]++
			}
			if inWork != (mi.residentOnGPU(g) && len(mi.queue) > 0) {
				t.Fatalf("t=%v: %s in withWork of w%d.g%d = %v with %d queued, resident=%v",
					now, mi.name, g.WorkerID, g.GPU, inWork, len(mi.queue), mi.residentOnGPU(g))
			}
			if g.disabled {
				if mi.residentOnGPU(g) {
					t.Fatalf("t=%v: %s still lists detached w%d.g%d", now, mi.name, g.WorkerID, g.GPU)
				}
				continue
			}
			if _, ok := g.Resident(mi); ok != mi.residentOnGPU(g) {
				t.Fatalf("t=%v: %s on w%d.g%d: mirror says resident=%v, replica list says %v",
					now, mi.name, g.WorkerID, g.GPU, ok, mi.residentOnGPU(g))
			}
		}
	}
	enabled := make([]int, len(c.groups))
	for _, g := range c.GPUs() {
		if !g.disabled {
			enabled[g.group]++
		}
		if g.foreign != foreign[g] {
			t.Fatalf("t=%v: w%d.g%d counts %d models of other groups, holds %d", now, g.WorkerID, g.GPU, g.foreign, foreign[g])
		}
	}
	stranded := 0
	for i := range c.groups {
		if c.groups[i].active != active[i] {
			t.Fatalf("t=%v: group %d's active count %d, %d of its models have queued requests", now, i, c.groups[i].active, active[i])
		}
		if c.groups[i].enabled != enabled[i] {
			t.Fatalf("t=%v: group %d counts %d enabled GPUs, has %d", now, i, c.groups[i].enabled, enabled[i])
		}
		if enabled[i] == 0 {
			stranded++
		}
	}
	if c.stranded != stranded {
		t.Fatalf("t=%v: %d groups counted stranded, %d are", now, c.stranded, stranded)
	}
	for _, mi := range c.modelList {
		if mi.outside != outside[mi] {
			t.Fatalf("t=%v: %s counts %d replicas outside group %d, has %d", now, mi.name, mi.outside, mi.group, outside[mi])
		}
	}
	for _, g := range c.GPUs() {
		if len(g.withWork) != work[g] {
			t.Fatalf("t=%v: w%d.g%d lists %d models with work, %d are", now, g.WorkerID, g.GPU, len(g.withWork), work[g])
		}
	}

	// The load candidates. exactSign is a model's sign by the linear
	// priority on the rebuilt ℓ_g. Before the flush, a model none of
	// whose GPUs is waiting for one must already carry its exact sign —
	// for a replicated model settled at p ≤ 0 that is the clearance
	// argument (verdict proven up to levels its GPUs are still under)
	// put to the test. After the flush every model must, and the cold
	// index and the positive set hold exactly the models of their sign.
	exactSign := func(mi *ModelInfo) loadSign {
		switch {
		case mi.demand <= 0 || len(mi.queue) == 0:
			return signNone
		case len(mi.residentOn) == 0:
			return signCold
		case loadPriorityLinear(mi, rebuilt) > 0:
			return signPositive
		}
		return signNone
	}
	for _, mi := range c.modelList {
		clean := true
		for _, g := range mi.residentOn {
			clean = clean && !g.loadDirty
		}
		if clean && mi.loadSign != exactSign(mi) {
			t.Fatalf("t=%v: %s carries load sign %d with no GPU dirty, exact sign is %d", now, mi.name, mi.loadSign, exactSign(mi))
		}
	}
	cold, pos := make([]int, len(c.groups)), make([]int, len(c.groups))
	c.flushLoadSigns()
	for _, mi := range c.modelList {
		sign := exactSign(mi)
		if mi.loadSign != sign {
			t.Fatalf("t=%v: %s carries load sign %d after a flush, exact sign is %d", now, mi.name, mi.loadSign, sign)
		}
		inCold := mi.coldNode != nil && mi.coldNode.key == -int64(mi.demand)
		inPos := mi.posAt > 0 && mi.posAt <= len(c.posSet) && c.posSet[mi.posAt-1] == mi
		if inCold != (sign == signCold) || inPos != (sign == signPositive) {
			t.Fatalf("t=%v: %s with sign %d: in the cold index %v, in the positive set %v", now, mi.name, sign, inCold, inPos)
		}
		switch sign {
		case signCold:
			cold[mi.group]++
		case signPositive:
			pos[mi.group]++
			positive = true
		}
	}
	nCold, nPos := 0, 0
	for i := range c.groups {
		nCold, nPos = nCold+cold[i], nPos+pos[i]
	}
	if len(c.dirtyGPUs) != 0 || c.coldIdx.Len() != nCold || len(c.posSet) != nPos {
		t.Fatalf("t=%v: after a flush the sets hold cold=%d positive=%d with %d GPUs dirty, recount %d / %d",
			now, c.coldIdx.Len(), len(c.posSet), len(c.dirtyGPUs), nCold, nPos)
	}
	for i := range c.groups {
		if grp := &c.groups[i]; grp.cold != cold[i] || grp.pos != pos[i] {
			t.Fatalf("t=%v: group %d counts cold=%d positive=%d, recount %d / %d", now, i, grp.cold, grp.pos, cold[i], pos[i])
		}
	}
	return positive
}

// compareSelections checks one GPU's three selections against the
// linear oracles and reports whether bestLoad had candidates (the gate
// saw something loadable somewhere) or answered from the gate, and what
// it selected.
func compareSelections(t *testing.T, s *ClockworkScheduler, g *GPUMirror, now simclock.Time) (walked bool, load *ModelInfo) {
	t.Helper()

	mi1, b1, e1, rs1 := s.bestStrategy(g, now)
	mi2, b2, e2, rs2 := s.bestStrategyLinear(g, now)
	if mi1 != mi2 || b1 != b2 || e1 != e2 || rs1 != rs2 {
		t.Fatalf("t=%v: indexed strategy (%s b%d earliest %v start %v) vs linear (%s b%d earliest %v start %v)",
			now, name(mi1), b1, e1, rs1, name(mi2), b2, e2, rs2)
	}

	_, cold, pos := s.c.candidateCounts(g.group)
	walked = cold > 0 || pos > 0 // flushed by the caller
	l1 := s.bestLoad(g, now)
	l2 := s.bestLoadLinear(g, now)
	if l1 != l2 {
		t.Fatalf("t=%v: w%d.g%d: indexed load %s vs linear %s", now, g.WorkerID, g.GPU, name(l1), name(l2))
	}
	if l1 != nil && !walked {
		t.Fatalf("t=%v: load %s selected with the gate closed", now, name(l1))
	}

	// Victim selection is fully deterministic (LRU order): identical.
	if v1, v2 := s.nextVictim(g), s.nextVictimLinear(g); v1 != v2 {
		t.Fatalf("t=%v: victim %v vs %v", now, name(v1), name(v2))
	}
	return walked, l1
}

func name(mi *ModelInfo) string {
	if mi == nil {
		return "<none>"
	}
	return mi.name
}

// TestOldestFirstIndexMatchesLinear covers the ablation load policy's
// deadline index, both enabled at Attach and built on first use by a
// scheduler whose LoadSelection was switched afterwards (which used to
// fall back to the linear scan for the rest of its life).
func TestOldestFirstIndexMatchesLinear(t *testing.T) {
	for _, late := range []bool{false, true} {
		late := late
		t.Run(fmt.Sprintf("switched-after-attach=%v", late), func(t *testing.T) {
			t.Parallel()
			s := NewClockworkScheduler()
			if !late {
				s.LoadSelection = LoadOldestFirst
			}
			cl := NewCluster(ClusterConfig{
				Workers: 1, GPUsPerWorker: 1, Seed: 11, NewScheduler: func() Scheduler { return s },
				PageCacheBytes: 6 * 7 * 16 * 1024 * 1024,
			})
			if cl.Ctl.deadlineIdxOn == late {
				t.Fatalf("deadline index on = %v right after Attach", cl.Ctl.deadlineIdxOn)
			}
			randomWorkload(cl, 11, 16, 500, 2*time.Second)
			stop := simclock.Time(3 * time.Second)
			steps, hits := 0, 0
			for cl.Eng.Now() < stop && cl.Eng.Step() {
				steps++
				if late && steps == 500 {
					// Mid-run, with models active and queues non-empty.
					if cl.Ctl.groups[0].active == 0 {
						t.Fatal("no active model at the switch; the late build would be vacuous")
					}
					s.LoadSelection = LoadOldestFirst
				}
				if steps%11 != 0 || s.LoadSelection != LoadOldestFirst {
					continue
				}
				now := cl.Eng.Now()
				for _, g := range cl.Ctl.GPUs() {
					o1 := s.bestLoadOldest(g, now)
					if o2 := s.bestLoadOldestLinear(g, now); o1 != o2 {
						t.Fatalf("t=%v: indexed oldest %v vs linear %v", now, name(o1), name(o2))
					}
					if o1 != nil {
						hits++
					}
				}
				if c := cl.Ctl; c.deadlineIdx.Len() != c.groups[0].active {
					t.Fatalf("t=%v: deadline index holds %d models, %d are active",
						now, c.deadlineIdx.Len(), c.groups[0].active)
				}
			}
			if hits == 0 {
				t.Fatal("the ablation policy never selected a model")
			}
		})
	}
}

// TestModelTreapOrdering exercises the treap directly under random
// insert/re-key/remove churn against a sorted reference, with keys as
// they come and negated (the cold index's demand order).
func TestModelTreapOrdering(t *testing.T) {
	for _, sign := range []int64{1, -1} {
		tr := &modelTreap{}
		stream := rng.NewStream(99)
		models := make([]*ModelInfo, 64)
		keys := make(map[*ModelInfo]int64)
		for i := range models {
			models[i] = &ModelInfo{name: fmt.Sprintf("m%d", i), seq: uint64(i)}
		}
		slot := func(mi *ModelInfo) **treapNode { return &mi.coldNode }
		for op := 0; op < 5000; op++ {
			mi := models[stream.Intn(len(models))]
			switch stream.Intn(3) {
			case 0, 1: // insert or re-key
				k := sign * int64(stream.Intn(40)) // narrow range to force ties
				tr.update(mi, slot(mi), k)
				keys[mi] = k
			case 2:
				tr.remove(slot(mi))
				delete(keys, mi)
			}
		}
		if tr.Len() != len(keys) {
			t.Fatalf("treap size %d, want %d", tr.Len(), len(keys))
		}
		type kv struct {
			mi  *ModelInfo
			key int64
		}
		want := make([]kv, 0, len(keys))
		for mi, k := range keys {
			want = append(want, kv{mi, k})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].key != want[j].key {
				return want[i].key < want[j].key
			}
			return want[i].mi.seq < want[j].mi.seq
		})
		got := make([]kv, 0, len(keys))
		tr.Scan(func(mi *ModelInfo) bool {
			got = append(got, kv{mi, keys[mi]})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("scan visited %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].mi != want[i].mi {
				t.Fatalf("sign=%d: position %d: got %s(key %d), want %s(key %d)",
					sign, i, got[i].mi.name, got[i].key, want[i].mi.name, want[i].key)
			}
		}
		if len(want) > 0 && tr.First() != want[0].mi {
			t.Fatalf("sign=%d: First is %s, want %s", sign, name(tr.First()), want[0].mi.name)
		}
		// Early exit stops the walk.
		visited := 0
		tr.Scan(func(*ModelInfo) bool { visited++; return visited < 3 })
		if visited != 3 && tr.Len() >= 3 {
			t.Fatalf("early exit visited %d", visited)
		}
	}
}
