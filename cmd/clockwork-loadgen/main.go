// Command clockwork-loadgen drives wall-clock load at a clockworkd
// daemon and reports goodput, SLO-violation rate, shed rate, and the
// wall/virtual latency tails (p50–p99.9). It runs closed-loop by
// default (a fixed number of outstanding requests) and open-loop with
// -rate (Poisson arrivals at a fixed request rate, the §6.3 arrival
// process).
//
// -transport selects the front door: "http" (the JSON API) or
// "stream" (the binary stream transport; point -addr at the daemon's
// -stream-addr). With -transport stream, -batch N pipelines closed-loop
// submissions in batches of N through one write, and -stream-conns
// sets how many multiplexed connections to spread load over.
//
// Examples:
//
//	clockwork-loadgen -addr 127.0.0.1:8400 -duration 2s -concurrency 8
//	clockwork-loadgen -addr 127.0.0.1:8401 -transport stream -batch 32
//	clockwork-loadgen -addr 127.0.0.1:8400 -rate 500 -slo 100ms
//	clockwork-loadgen -addr 127.0.0.1:8401 -transport stream -requests 100000
//
// Without -models it targets every model registered on the server,
// round-robin. The exit status encodes the run's health: 1 for usage or
// transport-level failure, 2 if any response was lost or duplicated, 3
// if goodput fell below -min-goodput.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"clockwork/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8400", "clockworkd address (the daemon's -stream-addr when -transport stream)")
		transport   = flag.String("transport", "http", "front door to drive: http or stream")
		streamConns = flag.Int("stream-conns", 2, "multiplexed connections (stream transport)")
		batch       = flag.Int("batch", 0, "closed-loop pipelined batch size (stream transport; 0/1 = unbatched)")
		models      = flag.String("models", "", "comma-separated instance names (empty = all registered)")
		slo         = flag.Duration("slo", 250*time.Millisecond, "per-request SLO (virtual clock)")
		concurrency = flag.Int("concurrency", 8, "closed-loop workers / open-loop outstanding cap")
		rate        = flag.Float64("rate", 0, "open-loop Poisson arrivals per second (0 = closed loop)")
		duration    = flag.Duration("duration", 2*time.Second, "wall-clock run length")
		requests    = flag.Uint64("requests", 0, "stop after this many submissions (0 = until -duration)")
		seed        = flag.Uint64("seed", 42, "arrival-process seed (open loop)")
		minGoodput  = flag.Float64("min-goodput", 0, "exit 3 unless goodput (req/s) reaches this")
		timeout     = flag.Duration("timeout", 10*time.Second, "server readiness timeout")
	)
	flag.Parse()

	cfg := serve.LoadConfig{
		SLO:         *slo,
		Concurrency: *concurrency,
		Rate:        *rate,
		Duration:    *duration,
		MaxRequests: *requests,
		Seed:        *seed,
		Batch:       *batch,
	}
	readyCtx, cancel := context.WithTimeout(context.Background(), *timeout)
	switch *transport {
	case "http":
		client := serve.NewClient(*addr, nil)
		if err := client.WaitReady(readyCtx); err != nil {
			log.Fatalf("clockwork-loadgen: server %s not ready: %v", *addr, err)
		}
		cfg.Transport = client
	case "stream":
		// The stream listener has no health endpoint; readiness is a
		// successful dial, retried until the timeout.
		for {
			sc, err := serve.DialStream(*addr, serve.StreamOptions{Conns: *streamConns})
			if err == nil {
				cfg.Transport = sc
				defer sc.Close()
				break
			}
			select {
			case <-readyCtx.Done():
				log.Fatalf("clockwork-loadgen: stream server %s not ready: %v", *addr, err)
			case <-time.After(20 * time.Millisecond):
			}
		}
	default:
		log.Fatalf("clockwork-loadgen: unknown -transport %q (want http or stream)", *transport)
	}
	cancel()

	if *models != "" {
		for _, m := range strings.Split(*models, ",") {
			if m = strings.TrimSpace(m); m != "" {
				cfg.Models = append(cfg.Models, m)
			}
		}
	}
	// A -requests bound without an explicit -duration shouldn't be cut
	// short by the 2s default: stretch the window and let the request
	// budget terminate the run. An explicit -duration always wins.
	durationSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "duration" {
			durationSet = true
		}
	})
	if *requests > 0 && !durationSet {
		cfg.Duration = time.Hour
	}

	rep, err := serve.RunLoad(context.Background(), cfg)
	if err != nil {
		log.Fatalf("clockwork-loadgen: %v", err)
	}
	fmt.Print(rep.String())

	lost := rep.Sent - rep.Completed - rep.Errors - rep.Shed
	if lost != 0 || rep.Duplicates != 0 {
		fmt.Fprintf(os.Stderr, "clockwork-loadgen: INTEGRITY FAILURE lost=%d duplicates=%d\n", lost, rep.Duplicates)
		os.Exit(2)
	}
	if rep.Goodput < *minGoodput {
		fmt.Fprintf(os.Stderr, "clockwork-loadgen: goodput %.1f below required %.1f\n", rep.Goodput, *minGoodput)
		os.Exit(3)
	}
}
