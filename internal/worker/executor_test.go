package worker

import (
	"testing"
	"time"

	"clockwork/internal/action"
	"clockwork/internal/simclock"
)

func newBench(eng *simclock.Engine) (*executor, *[]uint64, *[]uint64) {
	var started, rejected []uint64
	x := newExecutor(eng, "test",
		func(a *action.Action, done func()) {
			started = append(started, a.ID)
			eng.ScheduleRun(eng.Now().Add(time.Millisecond), simclock.Func(done)) // pretend 1ms of work
		},
		func(a *action.Action) { rejected = append(rejected, a.ID) })
	return x, &started, &rejected
}

func act(id uint64, earliest, latest simclock.Time) *action.Action {
	return &action.Action{ID: id, Type: action.Infer, Earliest: earliest, Latest: latest}
}

func TestExecutorRunsInEarliestOrder(t *testing.T) {
	eng := simclock.NewEngine()
	x, started, _ := newBench(eng)
	x.enqueue(act(1, simclock.Time(3*time.Millisecond), simclock.MaxTime))
	x.enqueue(act(2, simclock.Time(time.Millisecond), simclock.MaxTime))
	x.enqueue(act(3, simclock.Time(2*time.Millisecond), simclock.MaxTime))
	eng.Run()
	want := []uint64{2, 3, 1}
	for i, id := range *started {
		if id != want[i] {
			t.Fatalf("order = %v, want %v", *started, want)
		}
	}
}

func TestExecutorWaitsForEarliest(t *testing.T) {
	eng := simclock.NewEngine()
	var startedAt simclock.Time
	x := newExecutor(eng, "t",
		func(a *action.Action, done func()) { startedAt = eng.Now(); done() },
		func(a *action.Action) {})
	x.enqueue(act(1, simclock.Time(7*time.Millisecond), simclock.MaxTime))
	eng.Run()
	if startedAt != simclock.Time(7*time.Millisecond) {
		t.Fatalf("started at %v", startedAt)
	}
}

func TestExecutorRejectsExpiredWindow(t *testing.T) {
	eng := simclock.NewEngine()
	x, started, rejected := newBench(eng)
	eng.ScheduleRun(simclock.Time(10*time.Millisecond), simclock.Func(func() {
		x.enqueue(act(1, 0, simclock.Time(5*time.Millisecond))) // expired
		x.enqueue(act(2, 0, simclock.MaxTime))
	}))
	eng.Run()
	if len(*rejected) != 1 || (*rejected)[0] != 1 {
		t.Fatalf("rejected = %v", *rejected)
	}
	if len(*started) != 1 || (*started)[0] != 2 {
		t.Fatalf("started = %v", *started)
	}
}

func TestExecutorBoundaryInclusive(t *testing.T) {
	eng := simclock.NewEngine()
	x, started, rejected := newBench(eng)
	// latest == now is still allowed to begin (window is inclusive).
	eng.ScheduleRun(simclock.Time(5*time.Millisecond), simclock.Func(func() {
		x.enqueue(act(1, 0, simclock.Time(5*time.Millisecond)))
	}))
	eng.Run()
	if len(*started) != 1 || len(*rejected) != 0 {
		t.Fatalf("started=%v rejected=%v", *started, *rejected)
	}
}

func TestExecutorSerialises(t *testing.T) {
	eng := simclock.NewEngine()
	var running int
	var maxRunning int
	x := newExecutor(eng, "t",
		func(a *action.Action, done func()) {
			running++
			if running > maxRunning {
				maxRunning = running
			}
			eng.ScheduleRun(eng.Now().Add(time.Millisecond), simclock.Func(func() { running--; done() }))
		},
		func(a *action.Action) {})
	for i := uint64(1); i <= 10; i++ {
		x.enqueue(act(i, 0, simclock.MaxTime))
	}
	eng.Run()
	if maxRunning != 1 {
		t.Fatalf("max concurrent = %d, executor must serialise", maxRunning)
	}
}

func TestExecutorEarlierArrivalPreempts(t *testing.T) {
	eng := simclock.NewEngine()
	x, started, _ := newBench(eng)
	// First enqueue an action far in the future; then a nearer one must
	// run first even though it arrived second.
	x.enqueue(act(1, simclock.Time(50*time.Millisecond), simclock.MaxTime))
	eng.ScheduleRun(simclock.Time(time.Millisecond), simclock.Func(func() {
		x.enqueue(act(2, simclock.Time(2*time.Millisecond), simclock.MaxTime))
	}))
	eng.Run()
	if (*started)[0] != 2 {
		t.Fatalf("order = %v", *started)
	}
}

func TestExecutorIdleAndPending(t *testing.T) {
	eng := simclock.NewEngine()
	x, _, _ := newBench(eng)
	if !x.idle() || x.pending() != 0 {
		t.Fatal("fresh executor should be idle")
	}
	x.enqueue(act(1, simclock.Time(time.Millisecond), simclock.MaxTime))
	if x.idle() || x.pending() != 1 {
		t.Fatal("queued executor should not be idle")
	}
	eng.Run()
	if !x.idle() || x.pending() != 0 {
		t.Fatal("drained executor should be idle")
	}
}

func TestExecutorTieBreaksByID(t *testing.T) {
	eng := simclock.NewEngine()
	x, started, _ := newBench(eng)
	at := simclock.Time(time.Millisecond)
	x.enqueue(act(9, at, simclock.MaxTime))
	x.enqueue(act(3, at, simclock.MaxTime))
	x.enqueue(act(5, at, simclock.MaxTime))
	eng.Run()
	want := []uint64{3, 5, 9}
	for i, id := range *started {
		if id != want[i] {
			t.Fatalf("order = %v, want %v", *started, want)
		}
	}
}
