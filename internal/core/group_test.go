package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"clockwork/internal/action"
	"clockwork/internal/modelzoo"
)

// newShardedCluster builds a cluster with Shards=N placement groups and
// one ResNet50 copy per model name, using exact timing so tests are
// schedule-stable.
func newShardedCluster(t *testing.T, shards, workers, models int) (*Cluster, []string) {
	t.Helper()
	cl := NewCluster(ClusterConfig{
		Workers:       workers,
		GPUsPerWorker: 1,
		Shards:        shards,
		NewScheduler:  func() Scheduler { return NewClockworkScheduler() },
		NoNoise:       true,
		Seed:          1,
	})
	names := make([]string, models)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		if err := cl.RegisterModel(names[i], modelzoo.ResNet50()); err != nil {
			t.Fatal(err)
		}
	}
	return cl, names
}

// TestPlacementGroups is the placement rule end to end, at one, two and
// four groups under a Zipf load whose cold tail cycles through small
// page caches: every LOAD lands on a GPU of the model's group — the
// group a hash of its name gives it, the GPU's the group of its worker
// — and every group serves requests.
func TestPlacementGroups(t *testing.T) {
	for _, groups := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("groups-%d", groups), func(t *testing.T) {
			t.Parallel()
			cl := NewCluster(ClusterConfig{
				Workers: 8, GPUsPerWorker: 2, Shards: groups, Seed: 3,
				// Two ResNet50s per GPU: the 64 models do not fit, so LOADs
				// and evictions continue throughout.
				PageCacheBytes: 2 * 7 * 16 * 1024 * 1024,
			})
			c := cl.Ctl
			loads := 0
			for _, wh := range c.workers {
				wh, submit := wh, wh.submit
				wh.submit = func(a *action.Action, payload int64) {
					if a.Type == action.Load {
						loads++
						if want := groupOf(a.Model, groups); wh.id%groups != want {
							t.Fatalf("LOAD of %s (group %d) sent to worker %d (group %d)", a.Model, want, wh.id, wh.id%groups)
						}
					}
					submit(a, payload)
				}
			}
			names, _ := cl.RegisterCopies("m", modelzoo.ResNet50(), 64)
			zipfWorkload(cl, 3, names, 0.9, 2000, 0, 3*time.Second)
			cl.RunFor(4 * time.Second)
			served := make([]uint64, groups)
			for _, name := range names {
				st, _ := cl.ModelStats(name)
				served[groupOf(name, groups)] += st.Succeeded
			}
			for i, n := range served {
				if n == 0 {
					t.Fatalf("group %d served nothing: %v", i, served)
				}
			}
			if st := cl.Stats(); loads == 0 || st.ActionsUnload == 0 {
				t.Fatalf("%d LOADs, %d UNLOADs: the placement rule was never exercised", loads, st.ActionsUnload)
			}
			t.Logf("%d LOADs, served per group %v", loads, served)
		})
	}
}

// TestShardedClusterServes: with four placement groups every request is
// answered exactly once with a unique request ID, and the models spread
// over the groups.
func TestShardedClusterServes(t *testing.T) {
	const shards, workers, models, perModel = 4, 8, 16, 6
	cl, names := newShardedCluster(t, shards, workers, models)

	owned := make(map[int]int)
	for _, n := range names {
		owned[cl.Ctl.tab.lookup(n).group]++
	}
	if len(owned) < 2 {
		t.Fatalf("the name hash put all %d models in one group: %v", models, owned)
	}

	responses := 0
	ids := make(map[uint64]bool)
	var handles []*Handle
	for round := 0; round < perModel; round++ {
		for _, n := range names {
			h := NewHandle(ResultFunc(func(Result) { responses++ }))
			if err := cl.Submit(SubmitSpec{Model: n, SLO: 250 * time.Millisecond}, h); err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		cl.RunFor(40 * time.Millisecond)
	}
	cl.RunFor(time.Second)

	total := models * perModel
	if responses != total {
		t.Fatalf("responses = %d, want %d", responses, total)
	}
	for _, h := range handles {
		if !h.Done() {
			t.Fatal("handle not done after drain")
		}
		if h.ID() == 0 {
			t.Fatal("request never reached the controller")
		}
		if ids[h.ID()] {
			t.Fatalf("duplicate request ID %d", h.ID())
		}
		ids[h.ID()] = true
	}
	if st := cl.Stats(); st.Requests != uint64(total) {
		t.Fatalf("stats.Requests = %d, want %d", st.Requests, total)
	}
	if got := cl.Metrics.Total.Requests; got != uint64(total) {
		t.Fatalf("Metrics.Total.Requests = %d, want %d", got, total)
	}
}

// TestShardedDeterminism: equal seeds must give byte-identical outcome
// streams with placement groups.
func TestShardedDeterminism(t *testing.T) {
	run := func() string {
		cl := NewCluster(ClusterConfig{
			Workers:       4,
			GPUsPerWorker: 1,
			Shards:        2,
			NewScheduler:  func() Scheduler { return NewClockworkScheduler() },
			Seed:          7,
		})
		names := make([]string, 8)
		for i := range names {
			names[i] = fmt.Sprintf("d%d", i)
			if err := cl.RegisterModel(names[i], modelzoo.ResNet50()); err != nil {
				t.Fatal(err)
			}
		}
		// Skew the load: all demand lands on the models of one group,
		// with queues deep enough that its GPUs evict and reload.
		target := cl.Ctl.tab.lookup(names[0]).group
		var hot []string
		for _, n := range names {
			if cl.Ctl.tab.lookup(n).group == target {
				hot = append(hot, n)
			}
		}
		if len(hot) < 2 {
			t.Fatalf("hash placed %d models in group %d; need ≥2", len(hot), target)
		}
		var log string
		for round := 0; round < 20; round++ {
			for i := 0; i < 24; i++ {
				submitFn(cl, hot[(round+i)%len(hot)], 500*time.Millisecond, func(r Result) {
					log += fmt.Sprintf("%d:%s:%v:%v\n", r.RequestID, r.Model, r.Success, r.Latency)
				})
			}
			cl.RunFor(10 * time.Millisecond)
		}
		cl.RunFor(time.Second)
		return log
	}
	log1 := run()
	log2 := run()
	t.Logf("%d outcome lines", strings.Count(log1, "\n"))
	if log1 != log2 {
		t.Fatal("outcome streams diverged across equal-seed runs")
	}
}

// TestShardGeometryValidation: more groups than workers (a group that
// starts with no GPU, stranded from the first request) is a
// construction-time error.
func TestShardGeometryValidation(t *testing.T) {
	if err := (ClusterConfig{Workers: 2, Shards: 4}).Validate(); err == nil {
		t.Fatal("want error for Shards > Workers")
	}
}

// TestShardedControlPlaneRouting: worker lifecycle and model retirement
// with placement groups.
func TestShardedControlPlaneRouting(t *testing.T) {
	cl, names := newShardedCluster(t, 2, 4, 4)

	if err := cl.DrainWorker(1); err != nil {
		t.Fatal(err)
	}
	if st, err := cl.WorkerStateOf(1); err != nil || st != WorkerDraining {
		t.Fatalf("WorkerStateOf(1) = %v, %v", st, err)
	}
	if err := cl.FailWorker(2); err != nil {
		t.Fatal(err)
	}
	if st, _ := cl.WorkerStateOf(2); st != WorkerFailed {
		t.Fatalf("worker 2 state = %v, want failed", st)
	}
	if err := cl.DrainWorker(99); !errors.Is(err, ErrNoSuchWorker) {
		t.Fatalf("want ErrNoSuchWorker, got %v", err)
	}

	// Unregister scrubs the cluster bookkeeping.
	if err := cl.UnregisterModel(names[0]); err != nil {
		t.Fatal(err)
	}
	if cl.Ctl.tab.lookup(names[0]) != nil {
		t.Fatal("unregistered model still registered")
	}
	if err := submitFn(cl, names[0], time.Second, nil); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("want ErrUnknownModel after unregister, got %v", err)
	}
	// And the remaining models still serve.
	okResp := false
	submitFn(cl, names[1], time.Second, func(r Result) { okResp = r.Success })
	cl.RunFor(2 * time.Second)
	if !okResp {
		t.Fatal("surviving model failed to serve after control-plane churn")
	}
}

// TestStrandedGroupKeepsServing: a placement group whose GPUs are all
// drained or failed strands nothing. Its models are loaded onto the
// other groups' GPUs and keep serving; once the group has a GPU again,
// new LOADs of its models land in it. Throughout, a LOAD goes outside
// the model's group only while that group has no enabled GPU.
func TestStrandedGroupKeepsServing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		strand  func(cl *Cluster) error // takes every worker of group 1 out
	}{
		{"drain", 4, func(cl *Cluster) error { return errors.Join(cl.DrainWorker(1), cl.DrainWorker(3)) }},
		{"fail", 2, func(cl *Cluster) error { return cl.FailWorker(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const groups = 2
			cl := NewCluster(ClusterConfig{
				Workers: tc.workers, GPUsPerWorker: 1, Shards: groups, Seed: 5,
				// Four ResNet50s per GPU: LOADs and evictions continue
				// throughout.
				PageCacheBytes: 4 * 7 * 16 * 1024 * 1024,
			})
			c := cl.Ctl
			var loads [groups][groups]int // by model group, then GPU group
			watch := func(wh *workerHandle) {
				submit := wh.submit
				wh.submit = func(a *action.Action, payload int64) {
					if a.Type == action.Load {
						mi, _ := c.ModelByID(a.ModelID)
						if mi.group != wh.id%groups && c.groups[mi.group].enabled > 0 {
							t.Fatalf("t=%v: LOAD of %s (group %d) sent to worker %d while its group has %d GPUs",
								c.Now(), a.Model, mi.group, wh.id, c.groups[mi.group].enabled)
						}
						loads[mi.group][wh.id%groups]++
					}
					submit(a, payload)
				}
			}
			for _, wh := range c.workers {
				watch(wh)
			}
			names, _ := cl.RegisterCopies("m", modelzoo.ResNet50(), 16)

			// phase submits 600 requests round-robin over the models for
			// 3 s and returns each group's successes and requests.
			phase := func() (ok, sent [groups]int) {
				for i := 0; i < 600; i++ {
					grp := groupOf(names[i%len(names)], groups)
					sent[grp]++
					submitFn(cl, names[i%len(names)], 200*time.Millisecond, func(r Result) {
						if r.Success {
							ok[grp]++
						}
					})
					cl.RunFor(5 * time.Millisecond)
				}
				cl.RunFor(time.Second)
				return ok, sent
			}
			if err := tc.strand(cl); err != nil {
				t.Fatal(err)
			}
			ok, sent := phase()
			for g := range ok {
				if ok[g] < sent[g]*3/4 {
					t.Fatalf("stranded: group %d served %d of %d requests", g, ok[g], sent[g])
				}
			}
			t.Logf("stranded: served %v of %v", ok, sent)
			outside := 0
			for _, name := range names {
				outside += c.tab.lookup(name).outside
			}
			if outside == 0 {
				t.Fatal("no replica outside its group: the stranded group's models were never placed")
			}

			// Two more workers give each group one (worker IDs 2, 3 or 4, 5).
			before := len(c.workers)
			cl.AddWorker()
			cl.AddWorker()
			for _, wh := range c.workers[before:] {
				watch(wh)
			}
			home := loads[1][1]
			ok, sent = phase()
			for g := range ok {
				if ok[g] < sent[g]*3/4 {
					t.Fatalf("recovered: group %d served %d of %d requests", g, ok[g], sent[g])
				}
			}
			if loads[1][1] == home {
				t.Fatalf("no LOAD of group 1's models in group 1 after recovery (LOADs by model and GPU group: %v)", loads)
			}
			t.Logf("%d replicas outside their group while stranded; served %v of %v after recovery; LOADs by model and GPU group %v", outside, ok, sent, loads)
		})
	}
}
