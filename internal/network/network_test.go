package network

import (
	"testing"
	"time"

	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

func TestSendDeliversAfterLatency(t *testing.T) {
	eng := simclock.NewEngine()
	l := NewLink(eng)
	var at simclock.Time
	l.SendRun(0, simclock.Func(func() { at = eng.Now() }))
	eng.Run()
	if at != simclock.Time(DefaultLatency) {
		t.Fatalf("delivered at %v, want %v", at, DefaultLatency)
	}
	if l.Sent() != 1 || l.BytesSent() != 0 {
		t.Fatal("counters wrong")
	}
}

func TestSendSerialisationDelay(t *testing.T) {
	eng := simclock.NewEngine()
	l := NewLink(eng)
	l.Latency = 0
	// 1.25 MB at 1.25 GB/s = 1ms.
	var at simclock.Time
	l.SendRun(1_250_000, simclock.Func(func() { at = eng.Now() }))
	eng.Run()
	if at != simclock.Time(time.Millisecond) {
		t.Fatalf("delivered at %v, want 1ms", at)
	}
}

func TestLinkFIFOBacklog(t *testing.T) {
	eng := simclock.NewEngine()
	l := NewLink(eng)
	l.Latency = 0
	var order []int
	l.SendRun(1_250_000, simclock.Func(func() { order = append(order, 1) })) // 1ms
	l.SendRun(1_250_000, simclock.Func(func() { order = append(order, 2) })) // +1ms
	if d := l.QueueDelay(); d != 2*time.Millisecond {
		t.Fatalf("queue delay = %v", d)
	}
	eng.Run()
	if eng.Now() != simclock.Time(2*time.Millisecond) {
		t.Fatalf("drained at %v", eng.Now())
	}
	if order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestInfiniteBandwidth(t *testing.T) {
	eng := simclock.NewEngine()
	l := NewLink(eng)
	l.BytesPerSecond = 0
	l.Latency = time.Microsecond
	var at simclock.Time
	l.SendRun(1<<40, simclock.Func(func() { at = eng.Now() }))
	eng.Run()
	if at != simclock.Time(time.Microsecond) {
		t.Fatalf("delivered at %v", at)
	}
}

func TestJitterOccasionallyDelays(t *testing.T) {
	eng := simclock.NewEngine()
	l := NewLink(eng)
	l.Latency = 0
	l.BytesPerSecond = 0
	l.Jitter = rng.NewStream(1)
	l.JitterProb = 0.5
	l.JitterMax = time.Millisecond
	delayed := 0
	for i := 0; i < 1000; i++ {
		sentAt := eng.Now()
		var arrived simclock.Time
		l.SendRun(0, simclock.Func(func() { arrived = eng.Now() }))
		eng.Run()
		if arrived.Sub(sentAt) > 0 {
			delayed++
		}
	}
	if delayed < 300 || delayed > 700 {
		t.Fatalf("jitter applied to %d/1000 messages, want ≈500", delayed)
	}
}

func TestSendPanics(t *testing.T) {
	eng := simclock.NewEngine()
	l := NewLink(eng)
	for i, fn := range []func(){
		func() { l.SendRun(-1, simclock.Func(func() {})) },
		func() { l.SendRun(0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestDuplexIndependentDirections(t *testing.T) {
	eng := simclock.NewEngine()
	d := NewDuplex(eng)
	d.AtoB.Latency = 0
	d.BtoA.Latency = 0
	// Saturate A→B; B→A must be unaffected.
	d.AtoB.SendRun(12_500_000, simclock.Func(func() {})) // 10ms at 1.25GB/s
	var backAt simclock.Time
	d.BtoA.SendRun(0, simclock.Func(func() { backAt = eng.Now() }))
	eng.Run()
	if backAt != 0 {
		t.Fatalf("reverse direction delayed: %v", backAt)
	}
}
