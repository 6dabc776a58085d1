package baseline

import (
	"errors"
	"slices"
	"testing"
	"time"

	"clockwork/internal/core"
	"clockwork/internal/modelzoo"
)

// TestBaselinesKeepPlacementGroups runs both baselines at two placement
// groups. While every group has a GPU each model is placed in its own
// group. Once a group is stranded its model is placed on another
// group's GPU, and unregistering it while an INFER runs there is
// refused as busy. Every request is answered, and once the model is
// gone no enabled GPU holds it.
func TestBaselinesKeepPlacementGroups(t *testing.T) {
	for _, policy := range []string{"infaas", "clipper"} {
		t.Run(policy, func(t *testing.T) {
			cl, err := core.NewClusterWithPolicy(policy, core.ClusterConfig{
				Workers: 4, GPUsPerWorker: 1, Shards: 2, NoNoise: true, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			c := cl.Ctl
			names, _ := cl.RegisterCopies("m", modelzoo.ResNet50(), 8)
			sent, answered := 0, 0
			submit := func(name string) {
				sent++
				submitFn(cl, name, 100*time.Millisecond, func(core.Result) { answered++ })
			}
			for round := 0; round < 5; round++ {
				for _, name := range names {
					submit(name)
				}
				cl.RunFor(20 * time.Millisecond)
			}
			cl.RunFor(time.Second)
			for _, name := range names {
				mi, _ := c.Model(name)
				for _, g := range mi.ResidentOn() {
					if !slices.Contains(c.PlacementGPUs(mi), g) {
						t.Fatalf("%s placed on w%d.g%d, outside its group", name, g.WorkerID, g.GPU)
					}
				}
			}

			// Strand the group of names[0]: drain every worker of it.
			mi, _ := c.Model(names[0])
			home := slices.Clone(c.PlacementGPUs(mi))
			for _, g := range home {
				if err := cl.DrainWorker(g.WorkerID); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ {
				submit(names[0])
			}
			// Step until an INFER of the model runs outside its group.
			busy := func() bool {
				for _, g := range c.GPUs() {
					if g.InFlight(mi) > 0 {
						return true
					}
				}
				return false
			}
			for !busy() {
				if !cl.Eng.Step() {
					t.Fatal("the stranded model never ran")
				}
			}
			for _, g := range c.GPUs() {
				if g.InFlight(mi) > 0 && slices.Contains(home, g) {
					t.Fatalf("INFER on w%d.g%d of the drained group", g.WorkerID, g.GPU)
				}
			}
			if err := cl.UnregisterModel(names[0]); !errors.Is(err, core.ErrModelBusy) {
				t.Fatalf("unregistering during an INFER outside the group: got %v, want ErrModelBusy", err)
			}
			for busy() {
				cl.Eng.Step()
			}
			if err := cl.UnregisterModel(names[0]); err != nil {
				t.Fatal(err)
			}
			cl.RunFor(time.Second)
			if answered != sent {
				t.Fatalf("%d of %d requests answered", answered, sent)
			}
			for _, g := range c.GPUs() {
				if _, ok := g.Resident(mi); ok && !g.Disabled() {
					t.Fatalf("unregistered %s still resident on w%d.g%d", names[0], g.WorkerID, g.GPU)
				}
			}
		})
	}
}
