// SLO sweep: how low can the SLO go before requests stop fitting? A
// miniature of §6.3 — open-loop Poisson load on a handful of ResNet50
// instances while the SLO multiplier sweeps upward from 1× the batch-1
// execution latency.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"clockwork"
)

func main() {
	const (
		models    = 4
		totalRate = 400.0 // r/s across all models
		epoch     = 5 * time.Second
	)
	multipliers := []float64{1.0, 1.5, 2.2, 3.4, 5.1, 7.6, 11.4, 17.1, 25.6, 38.4}

	sys, err := clockwork.New(clockwork.Config{Workers: 2, GPUsPerWorker: 1, Seed: 5})
	if err != nil {
		panic(err)
	}
	names, err := sys.RegisterCopies("sweep", "resnet50_v1b", models)
	if err != nil {
		panic(err)
	}

	spec, _ := clockwork.ZooInfo("resnet50_v1b")
	base := time.Duration(spec.ExecMs[0] * float64(time.Millisecond))
	end := time.Duration(len(multipliers)) * epoch

	type ctr struct{ sent, ok int }
	epochs := make([]ctr, len(multipliers))
	epochOf := func(t time.Duration) int {
		e := int(t / epoch)
		if e >= len(multipliers) {
			return -1
		}
		return e
	}

	rnd := rand.New(rand.NewSource(9))
	perModel := totalRate / models
	for _, name := range names {
		name := name
		var arrival func()
		arrival = func() {
			gap := time.Duration(rnd.ExpFloat64() / perModel * float64(time.Second))
			sys.After(gap, func() {
				now := sys.Now()
				if now >= end {
					return
				}
				if e := epochOf(now); e >= 0 {
					slo := time.Duration(float64(base) * multipliers[e])
					epochs[e].sent++
					sys.SubmitRequest(clockwork.Request{Model: name, SLO: slo}, func(r clockwork.Result) {
						if r.Success && r.Latency <= slo {
							epochs[e].ok++
						}
					})
				}
				arrival()
			})
		}
		arrival()
	}

	sys.RunFor(end + time.Second)

	fmt.Printf("SLO sweep: %d models, %.0f r/s total, base exec %v\n\n", models, totalRate, base)
	fmt.Println("multiplier  SLO        satisfaction")
	for e, m := range multipliers {
		sat := 0.0
		if epochs[e].sent > 0 {
			sat = float64(epochs[e].ok) / float64(epochs[e].sent)
		}
		fmt.Printf("%9.1f  %-9v  %.3f\n", m, time.Duration(float64(base)*m).Round(100*time.Microsecond), sat)
	}
}
