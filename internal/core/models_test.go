package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"clockwork/internal/modelzoo"
	"clockwork/internal/predictor"
	"clockwork/internal/rng"
)

// fillExecWindow serves batches of one on name until its batch-1
// estimator's window is full, and returns the learned estimate.
func fillExecWindow(t *testing.T, cl *Cluster, name string) time.Duration {
	t.Helper()
	for i := 0; i < 2*predictor.DefaultWindow; i++ {
		if err := submitFn(cl, name, 250*time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
		cl.RunFor(60 * time.Millisecond)
	}
	mi := cl.Ctl.tab.lookup(name)
	w := mi.owner.profile.ExportKey(mi.id, predictor.Key{Op: predictor.Exec, Batch: 1})
	if len(w) != predictor.DefaultWindow {
		t.Fatalf("%s: batch-1 window holds %d measurements, want it full", name, len(w))
	}
	return mi.owner.EstimateExec(mi, 1)
}

// TestReregisterOtherZooModelRestartsProfile: a name's profile block
// outlives its registration, and a full window is trusted outright, so
// a name re-registered for a different catalogue model used to predict
// the previous model's latencies until ten new measurements landed.
// Estimates after such a re-registration must be the new model's
// offline seeds; the same model re-registered keeps what it learned.
func TestReregisterOtherZooModelRestartsProfile(t *testing.T) {
	small, big := modelzoo.MustByName("resnet18_v2"), modelzoo.MustByName("resnet152_v2")
	cl := NewCluster(ClusterConfig{Workers: 1, GPUsPerWorker: 1, Seed: 3})
	if err := cl.RegisterModel("m", small); err != nil {
		t.Fatal(err)
	}
	learned := fillExecWindow(t, cl, "m")
	if learned == small.ExecLatency(1) {
		t.Fatal("noise left the learned estimate on the seed; the test would be vacuous")
	}
	reregister := func(zoo *modelzoo.Model) *ModelInfo {
		t.Helper()
		if err := cl.UnregisterModel("m"); err != nil {
			t.Fatal(err)
		}
		if err := cl.RegisterModel("m", zoo); err != nil {
			t.Fatal(err)
		}
		return cl.Ctl.tab.lookup("m")
	}

	mi := reregister(small)
	if got := cl.Ctl.EstimateExec(mi, 1); got != learned {
		t.Fatalf("same model re-registered: batch-1 estimate %v, learned %v", got, learned)
	}

	mi = reregister(big)
	for _, b := range modelzoo.BatchSizes {
		if got, want := cl.Ctl.EstimateExec(mi, b), big.ExecLatency(b); got != want {
			t.Fatalf("batch %d estimate %v after re-registration as %s, want its seed %v", b, got, big.Name, want)
		}
	}
	if got, want := cl.Ctl.EstimateLoad(mi), big.Transfer(); got != want {
		t.Fatalf("load estimate %v, want the seed %v", got, want)
	}
	// And the new model is served on the new estimates.
	ok := false
	_ = submitFn(cl, "m", 250*time.Millisecond, func(r Result) { ok = r.Success })
	cl.RunFor(300 * time.Millisecond)
	if !ok {
		t.Fatal("request for the re-registered model failed")
	}
}

// TestModelInterningChurn drives a seeded mix of register, unregister,
// re-register (sometimes as another catalogue model) and submit — most control-plane steps with a request on the wire — and
// after every step holds the model table to the reference
// the test keeps: a name's ID never changes and is never shared, a live
// entry is exactly a registered name, in the placement group its name
// hashes to,
// ModelNames is registration order, host RAM agrees,
// and every page cache (mirror and worker) is internally consistent.
// Every submission gets exactly one outcome, and the two in-transit
// rules hold: a model unregistered while its request is on the wire
// fails it ReasonUnregistered, one unregistered and re-registered
// serves it by the new registration.
func TestModelInterningChurn(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for seed := uint64(1); seed <= 3; seed++ {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards-%d/seed-%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				interningChurn(t, shards, seed)
			})
		}
	}
}

func interningChurn(t *testing.T, shards int, seed uint64) {
	cl := NewCluster(ClusterConfig{
		Workers: 4, GPUsPerWorker: 1, Shards: shards, Seed: seed,
		NewScheduler: func() Scheduler { return NewClockworkScheduler() },
		// Six ResNet50s per GPU: the two dozen names do not all fit, so
		// re-used IDs meet page-cache slots that held them before.
		PageCacheBytes: 6 * 7 * 16 * 1024 * 1024,
	})
	zoos := []*modelzoo.Model{modelzoo.ResNet50(), modelzoo.MustByName("resnet18_v2"), modelzoo.MustByName("resnet101_v2")}
	pool := make([]string, 24)
	for i := range pool {
		pool[i] = fmt.Sprintf("m%d", i)
	}
	r := rng.NewSource(seed).Stream("interning-churn")

	// The reference: registration order, and each name's ID as first seen.
	var order []string
	ids := map[string]ModelID{}
	registered := func(name string) bool { return slices.Contains(order, name) }
	register := func(name string) {
		t.Helper()
		if err := cl.RegisterModel(name, zoos[r.Intn(len(zoos))]); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		order = append(order, name)
		id := cl.Ctl.tab.lookup(name).id
		if old, seen := ids[name]; seen && old != id {
			t.Fatalf("%s re-registered under ID %d, had %d", name, id, old)
		}
		ids[name] = id
	}
	unregister := func(name string) bool {
		err := cl.UnregisterModel(name)
		if errors.Is(err, ErrModelBusy) {
			return false
		}
		if err != nil {
			t.Fatalf("unregister %s: %v", name, err)
		}
		order = slices.DeleteFunc(order, func(n string) bool { return n == name })
		return true
	}

	// Outcomes, by submission index.
	var outcomes []int
	submit := func(name string) *Handle {
		t.Helper()
		i := len(outcomes)
		outcomes = append(outcomes, 0)
		h := NewHandle(ResultFunc(func(resp Result) {
			outcomes[i]++
			if resp.Model != name {
				t.Errorf("submission %d for %s answered as %s", i, name, resp.Model)
			}
		}))
		if err := cl.Submit(SubmitSpec{Model: name, SLO: 100 * time.Millisecond}, h); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		return h
	}
	// landed runs the clock until a submission made this instant has
	// reached the control plane (and a rejection has come back), then
	// holds it to its in-transit rule: rejected as unregistered, or
	// admitted — still queued, or answered otherwise.
	landed := func(h *Handle, name string, unregistered bool) {
		t.Helper()
		cl.RunFor(3 * cl.cfg.NetLatency)
		resp, done := h.Outcome()
		if unregistered {
			if !done || resp.Reason != ReasonUnregistered {
				t.Fatalf("%s unregistered under its request: done=%v reason %q", name, done, resp.Reason)
			}
			return
		}
		if done && resp.Reason == ReasonUnregistered {
			t.Fatalf("%s: request rejected as unregistered, want it admitted", name)
		}
		if h.ID() == 0 {
			t.Fatalf("%s: request never reached the controller", name)
		}
	}

	check := func(step int) {
		t.Helper()
		if got := cl.ModelNames(); !slices.Equal(got, order) {
			t.Fatalf("step %d: ModelNames %v, want %v", step, got, order)
		}
		tab := cl.Ctl.tab
		if len(tab.ids) != len(ids) || len(tab.live) != len(ids)+1 || tab.live[0] != nil {
			t.Fatalf("step %d: table holds %d names and %d slots for %d names seen", step, len(tab.ids), len(tab.live), len(ids))
		}
		owned := 0
		for name, id := range ids {
			if tab.ids[name] != id {
				t.Fatalf("step %d: %s has ID %d, was %d", step, name, tab.ids[name], id)
			}
			mi := tab.live[id]
			if !registered(name) {
				if mi != nil || cl.host.Get(id) != nil {
					t.Fatalf("step %d: unregistered %s still live (entry %v)", step, name, mi != nil)
				}
				continue
			}
			if mi == nil || mi.name != name || mi.id != id || mi.owner != cl.Ctl || mi.group != groupOf(name, shards) {
				t.Fatalf("step %d: %s (ID %d): entry %+v", step, name, id, mi)
			}
			if cl.host.Get(id) != mi.zoo {
				t.Fatalf("step %d: host RAM holds another model than %s's registration", step, name)
			}
			if got, ok := mi.owner.ModelByID(id); !ok || got != mi {
				t.Fatalf("step %d: owner does not resolve ID %d to %s", step, id, name)
			}
			owned++
		}
		listed := 0
		for _, mi := range cl.Ctl.modelList {
			if tab.live[mi.id] != mi {
				t.Fatalf("step %d: the controller lists %s, which is not its live entry", step, mi.name)
			}
			listed++
		}
		for _, g := range cl.Ctl.GPUs() {
			if err := g.Pages.CheckInvariants(); err != nil {
				t.Fatalf("step %d: mirror w%d.g%d: %v", step, g.WorkerID, g.GPU, err)
			}
		}
		if owned != len(order) || listed != len(order) || cl.host.Count() != len(order) {
			t.Fatalf("step %d: %d registered, %d live, %d listed, %d in host RAM", step, len(order), owned, listed, cl.host.Count())
		}
		for _, w := range cl.Workers {
			for i := 0; i < w.NumGPUs(); i++ {
				if err := w.GPU(i).Pages.CheckInvariants(); err != nil {
					t.Fatalf("step %d: worker %d GPU %d: %v", step, w.ID(), i, err)
				}
			}
		}
	}

	for _, name := range pool[:12] {
		register(name)
	}
	pickRegistered := func() string { return order[r.Intn(len(order))] }
	transit := map[string]int{}
	for step := 0; step < 1500; step++ {
		switch op := r.Intn(10); {
		case op < 5 || len(order) < 4: // plain traffic, hot names first
			submit(order[r.Intn(1+r.Intn(len(order)))])
		case op == 5: // register a name not currently registered
			if name := pool[r.Intn(len(pool))]; !registered(name) {
				register(name)
			}
		case op == 6:
			unregister(pickRegistered())
		case op == 7: // unregistered with a request on the wire
			name := pickRegistered()
			if h := submit(name); unregister(name) {
				transit["unregistered"]++
				landed(h, name, true)
			}
		case op == 8: // unregistered and re-registered with a request on the wire
			name := pickRegistered()
			if h := submit(name); unregister(name) {
				register(name)
				transit["re-registered"]++
				landed(h, name, false)
			}
		}
		check(step)
		cl.RunFor(time.Duration(r.Intn(3000)) * time.Microsecond)
	}
	cl.RunFor(time.Second)
	check(-1)
	for i, n := range outcomes {
		if n != 1 {
			t.Fatalf("submission %d got %d outcomes", i, n)
		}
	}
	for _, rule := range []string{"unregistered", "re-registered"} {
		if transit[rule] == 0 {
			t.Fatalf("no request was on the wire while its model was %s: %v", rule, transit)
		}
	}
	st := cl.Stats()
	if st.ActionsLoad == 0 || st.ActionsUnload == 0 || cl.Metrics.Total.Succeeded == 0 {
		t.Fatalf("the churn must load, evict and serve: %+v, %+v", st, cl.Metrics.Total)
	}
	t.Logf("%d submissions, %d names seen, in transit %v, %d LOADs %d UNLOADs",
		len(outcomes), len(ids), transit, st.ActionsLoad, st.ActionsUnload)
}
