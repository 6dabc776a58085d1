package core

import (
	"testing"
	"time"

	"clockwork/internal/gpu"
	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
)

// These tests exercise C3 (§4.3): external factors the controller cannot
// predict. The system's contract is: affected actions fail fast, workers
// get straight back on schedule, and successful responses never violate
// their SLOs.

func TestDisturbanceDoesNotViolateSLOs(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())

	const slo = 30 * time.Millisecond
	violations, failures, successes := 0, 0, 0
	var loop func(i int)
	loop = func(i int) {
		if i >= 400 {
			return
		}
		submitFn(cl, "m", slo, func(r Response, l time.Duration) {
			switch {
			case r.Success && l > slo:
				violations++
			case r.Success:
				successes++
			default:
				failures++
			}
		})
		// Every 50th request, hit the GPU with a 20ms external stall
		// (thermal event) right before the work lands.
		if i%50 == 0 {
			cl.InjectDisturbance(0, 0, 20*time.Millisecond)
		}
		cl.Eng.ScheduleRun(cl.Eng.Now().Add(4*time.Millisecond), simclock.Func(func() { loop(i + 1) }))
	}
	loop(0)
	cl.RunFor(3 * time.Second)

	if successes == 0 {
		t.Fatal("nothing succeeded")
	}
	if violations != 0 {
		t.Fatalf("%d successful responses violated their SLO despite disturbances", violations)
	}
	// The disturbances must actually have caused some fallout —
	// otherwise this test is vacuous.
	if failures == 0 {
		t.Fatal("disturbances caused no failures; injection broken?")
	}
	// But the blast radius must be bounded: at 250 r/s (ρ≈0.4) each
	// 20ms stall drains in ~35ms, touching ~10 requests; 8 stalls must
	// not take down half the run.
	if failures > 150 {
		t.Fatalf("%d failures — disturbance cascaded", failures)
	}
}

func TestRecoveryAfterDisturbanceBurst(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 1, GPUsPerWorker: 1})
	cl.RegisterModel("m", modelzoo.ResNet50())

	// Warm up.
	submitFn(cl, "m", 100*time.Millisecond, nil)
	cl.RunFor(100 * time.Millisecond)

	// A big one-shot stall while traffic flows.
	cl.InjectDisturbance(0, 0, 50*time.Millisecond)

	okAfter := 0
	var loop func(i int)
	loop = func(i int) {
		if i >= 100 {
			return
		}
		submitFn(cl, "m", 50*time.Millisecond, func(r Response, l time.Duration) {
			// Count successes in the tail half, after recovery.
			if r.Success && i >= 50 {
				okAfter++
			}
		})
		cl.Eng.ScheduleRun(cl.Eng.Now().Add(3*time.Millisecond), simclock.Func(func() { loop(i + 1) }))
	}
	loop(0)
	cl.RunFor(2 * time.Second)

	if okAfter < 40 {
		t.Fatalf("only %d/50 post-recovery successes — worker did not get back on schedule", okAfter)
	}
}

func TestNoisyHardwareStillMeetsSLOs(t *testing.T) {
	// With the calibrated noise model (not NoNoise), rolling p99-style
	// profiles must keep successful responses within SLO.
	cl := NewCluster(ClusterConfig{
		Workers: 1, GPUsPerWorker: 1,
		Noise: gpu.DefaultNoise,
		Seed:  3,
	})
	cl.RegisterModel("m", modelzoo.ResNet50())
	const slo = 25 * time.Millisecond
	violations, ok := 0, 0
	var loop func(i int)
	loop = func(i int) {
		if i >= 2000 {
			return
		}
		submitFn(cl, "m", slo, func(r Response, l time.Duration) {
			if r.Success {
				ok++
				if l > slo {
					violations++
				}
			}
		})
		cl.Eng.ScheduleRun(cl.Eng.Now().Add(2500*time.Microsecond), simclock.Func(func() { loop(i + 1) }))
	}
	loop(0)
	cl.RunFor(8 * time.Second)

	if ok < 1900 {
		t.Fatalf("only %d/2000 succeeded under noise", ok)
	}
	if violations != 0 {
		t.Fatalf("%d successes violated the SLO under noise", violations)
	}
}

func TestJitteredNetworkKeepsServing(t *testing.T) {
	cl := NewCluster(ClusterConfig{
		Workers: 1, GPUsPerWorker: 1,
		NoNoise:    true,
		Seed:       5,
		NetLatency: 200 * time.Microsecond,
	})
	cl.RegisterModel("m", modelzoo.ResNet50())
	ok := 0
	for i := 0; i < 50; i++ {
		submitFn(cl, "m", 100*time.Millisecond, func(r Response, _ time.Duration) {
			if r.Success {
				ok++
			}
		})
		cl.RunFor(10 * time.Millisecond)
	}
	cl.RunFor(time.Second)
	if ok != 50 {
		t.Fatalf("served %d/50 with 200µs links", ok)
	}
}
