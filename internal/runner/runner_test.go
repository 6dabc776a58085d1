package runner

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	got := Map(items, func(i int) int {
		runtime.Gosched() // encourage out-of-order completion
		return i * i
	})
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if out := Map(nil, func(int) int { return 1 }); out != nil {
		t.Fatalf("empty input should return nil, got %v", out)
	}
	if out := Map([]int{7}, func(i int) int { return i + 1 }); len(out) != 1 || out[0] != 8 {
		t.Fatalf("single-item map wrong: %v", out)
	}
}

// simScenario runs a self-contained simulation: 200 exponential arrival
// gaps on a private engine, returning the final virtual instant. It
// follows the determinism contract, so every worker count must
// reproduce it exactly.
func simScenario(i int) string {
	eng := simclock.NewEngine()
	stream := rng.NewSource(Seed(42, fmt.Sprintf("scenario-%d", i))).Stream("arrivals")
	n := 0
	var arrival func()
	arrival = func() {
		n++
		if n >= 200 {
			return
		}
		gap := time.Duration(stream.Exp(0.001) * float64(time.Second))
		eng.ScheduleRun(eng.Now().Add(gap), simclock.Func(arrival))
	}
	arrival()
	eng.Run()
	return fmt.Sprintf("%d:%v", i, eng.Now())
}

func TestMapNMatchesSerial(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	serial := MapN(1, items, simScenario)
	for _, workers := range []int{2, 4, 8} {
		parallel := MapN(workers, items, simScenario)
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d: item %d diverged: %q vs %q", workers, i, serial[i], parallel[i])
			}
		}
	}
}

func TestMapRunsAllItemsOnce(t *testing.T) {
	var calls atomic.Int64
	items := make([]int, 97) // not a multiple of any worker count
	Map(items, func(int) int {
		calls.Add(1)
		return 0
	})
	if calls.Load() != 97 {
		t.Fatalf("fn called %d times, want 97", calls.Load())
	}
}

func TestMapPanicPropagatesLowestIndex(t *testing.T) {
	// The parallel pool must surface the same panic value a serial
	// loop would: the original value of the lowest-indexed failure.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if msg := fmt.Sprint(r); msg != "boom-3" {
			t.Fatalf("panic = %q, want the lowest-index original value %q", msg, "boom-3")
		}
	}()
	items := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	MapN(4, items, func(i int) int {
		if i >= 3 {
			panic(fmt.Sprintf("boom-%d", i))
		}
		return i
	})
}

func TestRunThunks(t *testing.T) {
	out := Run([]func() string{
		func() string { return "a" },
		func() string { return "b" },
		func() string { return "c" },
	})
	if len(out) != 3 || out[0] != "a" || out[1] != "b" || out[2] != "c" {
		t.Fatalf("Run order wrong: %v", out)
	}
}

func TestSeedDeterministicAndDistinct(t *testing.T) {
	if Seed(1, "x") != Seed(1, "x") {
		t.Fatal("Seed not deterministic")
	}
	if Seed(1, "x") == Seed(1, "y") {
		t.Fatal("distinct labels should give distinct seeds")
	}
	if Seed(1, "x") == Seed(2, "x") {
		t.Fatal("distinct bases should give distinct seeds")
	}
	if Seed(0, "") == 0 {
		t.Fatal("Seed must never return 0 (rng sources reject it)")
	}
}
