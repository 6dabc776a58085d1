// Example liveserve: the serving plane end to end in one process. It
// boots a clockworkd-style server on a loopback port at 200× wall
// speed, registers models over HTTP, drives a short closed-loop load
// through the typed client, prints the report, and drains cleanly —
// the same lifecycle `clockworkd` + `clockwork-loadgen` run as two
// processes.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"clockwork"
	"clockwork/serve"
)

func main() {
	sys, err := clockwork.New(clockwork.Config{Workers: 2, GPUsPerWorker: 2})
	if err != nil {
		log.Fatal(err)
	}

	srv := serve.New(sys, serve.Options{Speed: 200})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := srv.Serve(ln); err != nil {
			log.Fatal(err)
		}
	}()
	fmt.Printf("serving on %s at %gx wall speed\n", ln.Addr(), srv.Live().Speed())

	ctx := context.Background()
	client := serve.NewClient(ln.Addr().String(), nil)
	if err := client.WaitReady(ctx); err != nil {
		log.Fatal(err)
	}
	names, err := client.RegisterCopies(ctx, "resnet", "resnet50_v1b", 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered %d instances\n", len(names))

	// One hand-rolled request through the typed client…
	res, err := client.Infer(ctx, clockwork.Request{Model: names[0], SLO: 500 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first inference: success=%v cold_start=%v virtual latency=%v\n",
		res.Success, res.ColdStart, res.Latency.Round(time.Microsecond))

	// …then a second of closed-loop load.
	rep, err := serve.RunLoad(ctx, serve.LoadConfig{
		Transport:   client,
		SLO:         500 * time.Millisecond,
		Concurrency: 8,
		Duration:    time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.String())

	shCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")
}
