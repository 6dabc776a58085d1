// Azure-replay: a miniature of §6.5 — hundreds of models with wildly
// different workload shapes (sustained, cold, bursty, periodic) share a
// small cluster, and Clockwork keeps goodput ≈ throughput with bounded
// tails throughout.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"clockwork"
)

const (
	minutes  = 8
	slo      = 100 * time.Millisecond
	copies   = 2 // instances per zoo variety
	fnPerMod = 4 // function workloads per model instance
)

func main() {
	sys, err := clockwork.New(clockwork.Config{
		Workers: 2, GPUsPerWorker: 1, Seed: 11,
		MetricsInterval: time.Minute,
	})
	if err != nil {
		panic(err)
	}

	// Register a couple of instances of every catalogue model.
	var models []string
	for _, zoo := range clockwork.ZooModels() {
		names, err := sys.RegisterCopies(zoo, zoo, copies)
		if err != nil {
			panic(err)
		}
		models = append(models, names...)
	}
	fmt.Printf("registered %d model instances from %d zoo varieties\n",
		len(models), len(clockwork.ZooModels()))

	rnd := rand.New(rand.NewSource(3))
	perMinute := make([]int, minutes)
	okPerMinute := make([]int, minutes)

	// Each model gets a few function workloads with distinct shapes.
	for _, model := range models {
		model := model
		for f := 0; f < fnPerMod; f++ {
			rate := functionRate(rnd) // invocations/minute by class
			for m := 0; m < minutes; m++ {
				m := m
				n := poisson(rnd, rate(m))
				for k := 0; k < n; k++ {
					at := time.Duration(m)*time.Minute +
						time.Duration(rnd.Float64()*float64(time.Minute))
					sys.After(at, func() {
						perMinute[m]++
						sys.SubmitRequest(clockwork.Request{Model: model, SLO: slo}, func(r clockwork.Result) {
							if r.Success && r.Latency <= slo {
								okPerMinute[m]++
							}
						})
					})
				}
			}
		}
	}

	sys.RunFor(minutes*time.Minute + time.Second)

	fmt.Println("\nminute  sent  within-SLO")
	for m := 0; m < minutes; m++ {
		fmt.Printf("%6d  %4d  %10d\n", m, perMinute[m], okPerMinute[m])
	}
	s := sys.Summary()
	fmt.Printf("\ntotal=%d ok=%d cancelled=%d coldstarts=%d\n",
		s.Requests, s.Succeeded, s.Cancelled, s.ColdStarts)
	fmt.Printf("p50=%v p99=%v p99.99=%v max=%v\n", s.P50, s.P99, s.P9999, s.Max)
}

// functionRate picks a workload class and returns its invocations/minute
// as a function of the minute index.
func functionRate(rnd *rand.Rand) func(minute int) float64 {
	switch v := rnd.Float64(); {
	case v < 0.02: // heavy sustained
		base := 20 + 40*rnd.Float64()
		return func(int) float64 { return base }
	case v < 0.20: // bursty: active half the time
		base := 5 + 10*rnd.Float64()
		on := rnd.Intn(2) == 0
		return func(m int) float64 {
			if (m/2)%2 == 0 == on {
				return base
			}
			return 0.05
		}
	case v < 0.35: // periodic spike every 4 minutes
		spike := 20 + 20*rnd.Float64()
		off := rnd.Intn(4)
		return func(m int) float64 {
			if m%4 == off {
				return spike
			}
			return 0.05
		}
	default: // cold
		return func(int) float64 { return 0.2 * rnd.Float64() }
	}
}

// poisson draws a Poisson-distributed count by Knuth inversion.
func poisson(rnd *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rnd.Float64()
		if p <= limit {
			return k
		}
		k++
		if k > 10_000 {
			return k
		}
	}
}
