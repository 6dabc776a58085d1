package core

import (
	"errors"
	"testing"
	"time"

	"clockwork/internal/action"
	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
)

// Multi-GPU and multi-worker routing behaviours.

func TestMultiGPUWorkerRoutesActions(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 2})
	cl.RegisterModel("a", modelzoo.ResNet50())
	cl.RegisterModel("b", modelzoo.ResNet50())

	// Saturating demand on both models should end with each resident
	// somewhere, and both GPUs should have seen work.
	done := 0
	var loop func(i int)
	loop = func(i int) {
		if i >= 500 {
			return
		}
		submitFn(cl, "a", 20*time.Millisecond, func(r Result) {
			if r.Success {
				done++
			}
		})
		submitFn(cl, "b", 20*time.Millisecond, func(r Result) {
			if r.Success {
				done++
			}
		})
		cl.Eng.ScheduleRun(cl.Eng.Now().Add(2*time.Millisecond), simclock.Func(func() { loop(i + 1) }))
	}
	loop(0)
	cl.RunFor(3 * time.Second)

	if done < 800 {
		t.Fatalf("only %d/1000 served on a 2-GPU worker", done)
	}
	g0 := cl.Workers[0].GPU(0)
	g1 := cl.Workers[0].GPU(1)
	if g0.Dev.ExecCount() == 0 || g1.Dev.ExecCount() == 0 {
		t.Fatalf("work not spread: gpu0=%d gpu1=%d execs", g0.Dev.ExecCount(), g1.Dev.ExecCount())
	}
}

func TestManyModelsManyWorkers(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 3, GPUsPerWorker: 1})
	names, _ := cl.RegisterCopies("resnet18_v2", modelzoo.MustByName("resnet18_v2"), 24)
	served := map[string]int{}
	for round := 0; round < 3; round++ {
		for _, n := range names {
			model := n
			submitFn(cl, model, 100*time.Millisecond, func(r Result) {
				if r.Success {
					served[model]++
				}
			})
		}
		cl.RunFor(500 * time.Millisecond)
	}
	for _, n := range names {
		if served[n] != 3 {
			t.Fatalf("model %s served %d/3", n, served[n])
		}
	}
	// The 24 models should be spread across the 3 workers' GPUs.
	busyGPUs := 0
	for _, w := range cl.Workers {
		if w.GPU(0).Dev.ExecCount() > 0 {
			busyGPUs++
		}
	}
	if busyGPUs < 2 {
		t.Fatalf("only %d/3 workers did any work", busyGPUs)
	}
}

func TestResponseMarginDefaultScalesWithSLO(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())
	// A 4ms SLO (margin = SLO/20 = 200µs) is serviceable warm:
	// exec 2.77ms + IO leaves ~1ms of scheduling headroom.
	submitFn(cl, "m", 100*time.Millisecond, nil) // warm the model
	cl.RunFor(100 * time.Millisecond)
	ok := false
	var lat time.Duration
	submitFn(cl, "m", 4*time.Millisecond, func(r Result) { ok, lat = r.Success, r.Latency })
	cl.RunFor(100 * time.Millisecond)
	if !ok {
		t.Fatal("4ms SLO should be serviceable warm")
	}
	if lat > 4*time.Millisecond {
		t.Fatalf("latency %v exceeded the 4ms SLO", lat)
	}
}

func TestControllerAddWorkerOutOfOrderPanics(t *testing.T) {
	// Worker IDs are cluster-global and may be non-contiguous within one
	// controller (shard striping), but must still arrive ascending and
	// unique.
	eng := simclock.NewEngine()
	c := NewController(eng, Config{}, NewClockworkScheduler())
	c.AddWorker(3, 1, 1<<30, func(a *action.Action, _ int64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AddWorker(1, 1, 1<<30, func(a *action.Action, _ int64) {})
}

func TestControllerAddWorkerDuplicateIDPanics(t *testing.T) {
	eng := simclock.NewEngine()
	c := NewController(eng, Config{}, NewClockworkScheduler())
	c.AddWorker(0, 1, 1<<30, func(a *action.Action, _ int64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AddWorker(0, 1, 1<<30, func(a *action.Action, _ int64) {})
}

func TestControllerRegisterDuplicateError(t *testing.T) {
	eng := simclock.NewEngine()
	c := NewController(eng, Config{}, NewClockworkScheduler())
	if err := c.RegisterModel("m", modelzoo.ResNet50()); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterModel("m", modelzoo.ResNet50()); !errors.Is(err, ErrDuplicateModel) {
		t.Fatalf("want ErrDuplicateModel, got %v", err)
	}
}

func TestControllerRegisterNilError(t *testing.T) {
	eng := simclock.NewEngine()
	c := NewController(eng, Config{}, NewClockworkScheduler())
	if err := c.RegisterModel("m", nil); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("want ErrInvalidRequest, got %v", err)
	}
}

func TestSendInferWithNoRequestsPanics(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())
	mi, _ := cl.Ctl.Model("m")
	g := cl.Ctl.GPUs()[0]
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cl.Ctl.SendInfer(g, mi, 1, nil, 0, 0)
}
