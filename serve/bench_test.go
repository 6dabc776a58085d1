package serve

import (
	"context"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"clockwork"
)

// BenchmarkServeRoundTrip measures the serving plane's per-request
// overhead: one sequential client over loopback HTTP against an
// in-process server at a high speed multiplier, so the virtual-clock
// inference cost is microseconds of wall time and the measured figure
// is dominated by the HTTP + Inject + Wait plumbing this PR adds on
// top of the §6.5 control-plane cost.
func BenchmarkServeRoundTrip(b *testing.B) {
	sys, err := clockwork.New(clockwork.Config{Workers: 1, GPUsPerWorker: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		b.Fatal(err)
	}
	srv := New(sys, Options{Speed: 10_000})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	client := NewClient(ts.URL, nil)
	ctx := context.Background()

	// Warm the model onto a GPU so the steady state is measured.
	if _, err := client.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := client.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Success {
			b.Fatalf("infer failed: %+v", res)
		}
	}
}

// BenchmarkLiveRoundTrip measures the serving plane's engine floor:
// one submission injected onto the live engine plus the completion
// wait, with no network transport at all. Both transports pay this
// cost; their benchmark figure minus this one is the per-request
// transport overhead.
func BenchmarkLiveRoundTrip(b *testing.B) {
	sys, err := clockwork.New(clockwork.Config{Workers: 1, GPUsPerWorker: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		b.Fatal(err)
	}
	live := sys.StartLive(10_000)
	defer live.Stop()
	ctx := context.Background()
	// The submit closure is hoisted so the measured loop allocates
	// nothing of its own: handles are values, and the slot recycles
	// through Release.
	var h clockwork.Handle
	var serr error
	submit := func() {
		h, serr = sys.SubmitRequest(clockwork.Request{Model: "m", SLO: time.Second}, nil)
	}
	fire := func() {
		if doErr := live.Do(submit); doErr != nil {
			b.Fatal(doErr)
		}
		if serr != nil {
			b.Fatal(serr)
		}
		if _, err := h.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
	fire() // warm the model onto a GPU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fire()
	}
}

// newBenchStreamServer wires a warm system behind a loopback stream
// listener for the transport benchmarks and the allocation ratchets.
func newBenchStreamServer(b testing.TB, conns int, copies int) (*Server, *StreamClient, []string) {
	b.Helper()
	sys, err := clockwork.New(clockwork.Config{Workers: 1, GPUsPerWorker: 2})
	if err != nil {
		b.Fatal(err)
	}
	models := []string{"m"}
	if copies > 1 {
		if models, err = sys.RegisterCopies("m", "resnet50_v1b", copies); err != nil {
			b.Fatal(err)
		}
	} else if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		b.Fatal(err)
	}
	srv := New(sys, Options{Speed: 10_000})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.ServeStream(ln) }()
	client, err := DialStream(ln.Addr().String(), StreamOptions{Conns: conns})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		client.Close()
	})
	// Warm the models onto a GPU so the steady state is measured.
	for _, m := range models {
		if _, err := client.Infer(context.Background(), clockwork.Request{Model: m, SLO: time.Second}); err != nil {
			b.Fatal(err)
		}
	}
	return srv, client, models
}

// BenchmarkStreamRoundTrip is BenchmarkServeRoundTrip's fast-path
// twin: the same sequential loopback round trip, over the binary
// stream transport instead of HTTP/JSON. The ISSUE-5 acceptance bar is
// ≤ 1/3 of the HTTP figure on the same machine.
func BenchmarkStreamRoundTrip(b *testing.B) {
	_, client, _ := newBenchStreamServer(b, 1, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := client.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Success {
			b.Fatalf("infer failed: %+v", res)
		}
	}
}

// BenchmarkStreamBatchRoundTrip measures pipelined batched submission:
// streamBatchSize (64) requests per SubmitBatch, one coalesced write and
// one engine injection server-side. ns/op is per request, not per batch.
func BenchmarkStreamBatchRoundTrip(b *testing.B) {
	_, client, models := newBenchStreamServer(b, 1, 4)
	ctx := context.Background()
	reqs := make([]clockwork.Request, streamBatchSize)
	for i := range reqs {
		reqs[i] = clockwork.Request{Model: models[i%len(models)], SLO: time.Second}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += streamBatchSize {
		outs, err := client.SubmitBatch(ctx, reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outs {
			// Engine-level outcomes (including a worker rejecting a
			// same-instant burst it cannot schedule) are valid round
			// trips; only transport failures void the measurement.
			if o.Err != nil {
				b.Fatalf("batched infer transport failure: %v", o.Err)
			}
		}
	}
}
