package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"clockwork"
)

// newTestServer wires a small live system behind an httptest listener.
// Speed is high so virtual model latencies cost microseconds of wall
// time. Teardown (close the listener, then drain; Shutdown is
// idempotent, so tests may also drain themselves) runs via t.Cleanup.
func newTestServer(t *testing.T, cfg clockwork.Config, speed float64) (*Server, *Client) {
	t.Helper()
	sys, err := clockwork.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := New(sys, Options{Speed: speed})
	ts := httptest.NewServer(srv.Handler())
	client := NewClient(ts.URL, nil)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return srv, client
}

func TestServeRoundTrip(t *testing.T) {
	_, client := newTestServer(t, clockwork.Config{Workers: 1, GPUsPerWorker: 1}, 1000)
	ctx := context.Background()

	if err := client.RegisterModel(ctx, "resnet", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	models, err := client.Models(ctx)
	if err != nil || len(models) != 1 || models[0] != "resnet" {
		t.Fatalf("Models = %v, %v; want [resnet]", models, err)
	}

	res, err := client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if !res.Success {
		t.Fatalf("Infer failed: %+v", res)
	}
	if res.RequestID == 0 || res.Latency <= 0 || res.Model != "resnet" {
		t.Fatalf("implausible result: %+v", res)
	}
	if !res.ColdStart {
		t.Errorf("first request should be a cold start: %+v", res)
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Requests != 1 || st.Succeeded != 1 || st.Models != 1 || st.Workers != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestServeTypedErrors(t *testing.T) {
	_, client := newTestServer(t, clockwork.Config{}, 1000)
	ctx := context.Background()

	_, err := client.Infer(ctx, clockwork.Request{Model: "nope", SLO: time.Second})
	if !errors.Is(err, clockwork.ErrUnknownModel) {
		t.Fatalf("unknown model: got %v, want ErrUnknownModel", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown model: got %v, want 404 APIError", err)
	}

	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); !errors.Is(err, clockwork.ErrDuplicateModel) {
		t.Fatalf("duplicate: got %v, want ErrDuplicateModel", err)
	}
	if err := client.RegisterModel(ctx, "m2", "no-such-zoo"); !errors.Is(err, clockwork.ErrUnknownModel) {
		t.Fatalf("bad zoo: got %v, want ErrUnknownModel", err)
	}
	_, err = client.Infer(ctx, clockwork.Request{Model: "m", SLO: -time.Second})
	if !errors.Is(err, clockwork.ErrInvalidRequest) {
		t.Fatalf("bad SLO: got %v, want ErrInvalidRequest", err)
	}
	if err := client.DrainWorker(ctx, 99); !errors.Is(err, clockwork.ErrNoSuchWorker) {
		t.Fatalf("bad worker: got %v, want ErrNoSuchWorker", err)
	}
}

func TestServeAdminPlane(t *testing.T) {
	_, client := newTestServer(t,
		clockwork.Config{Workers: 2, GPUsPerWorker: 1, Shards: 2}, 1000)
	ctx := context.Background()

	id, err := client.AddWorker(ctx)
	if err != nil || id != 2 {
		t.Fatalf("AddWorker = %d, %v; want 2", id, err)
	}
	if err := client.DrainWorker(ctx, id); err != nil {
		t.Fatalf("DrainWorker: %v", err)
	}
	if err := client.DrainWorker(ctx, id); !errors.Is(err, clockwork.ErrWorkerDown) {
		t.Fatalf("double drain: got %v, want ErrWorkerDown", err)
	}
	if err := client.FailWorker(ctx, 1); err != nil {
		t.Fatalf("FailWorker: %v", err)
	}

	if _, err := client.RegisterCopies(ctx, "res", "resnet50_v1b", 4); err != nil {
		t.Fatalf("RegisterCopies: %v", err)
	}
	sh, err := client.ShardStats(ctx)
	if err != nil {
		t.Fatalf("ShardStats: %v", err)
	}
	if len(sh.Shards) != 2 {
		t.Fatalf("ShardStats = %+v; want 2 shards", sh)
	}
	if _, err := client.Rebalance(ctx); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	_, client := newTestServer(t, clockwork.Config{}, 1000)
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	if _, err := client.Infer(ctx, clockwork.Request{Model: "m", SLO: 500 * time.Millisecond}); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	resp, err := client.hc.Get(client.base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE clockwork_requests_total counter",
		"clockwork_requests_total 1",
		"clockwork_succeeded_total 1",
		`clockwork_latency_seconds{quantile="0.99"}`,
		"clockwork_models 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q; got:\n%s", want, text)
		}
	}
}

// TestServeGracefulDrain checks the shutdown contract: in-flight
// requests complete, new requests are refused, and the driver stops.
func TestServeGracefulDrain(t *testing.T) {
	// Real-time speed so requests are slow enough (milliseconds of
	// wall time) for the drain to overlap them.
	srv, client := newTestServer(t, clockwork.Config{}, 1)
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}

	const n = 8
	var wg sync.WaitGroup
	results := make([]clockwork.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = client.Infer(ctx, clockwork.Request{Model: "m", SLO: 2 * time.Second})
		}(i)
	}
	// Give the submissions a moment to get in flight, then drain.
	time.Sleep(20 * time.Millisecond)
	shCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("in-flight request %d broken by drain: %v", i, errs[i])
		}
		if !results[i].Success {
			t.Fatalf("in-flight request %d failed: %+v", i, results[i])
		}
	}
	// Post-drain submissions are refused.
	if _, err := client.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second}); err == nil {
		t.Fatal("Infer after Shutdown should fail")
	}
}

// TestServeDrainDeadlineReleasesWaiters: when the drain deadline
// expires with a request still in flight, over either transport, the
// stranded call is released (an error) rather than left on a stopped
// clock, no goroutine stays parked in Shutdown, and a second Shutdown
// has nothing left to wait for — the stranded request's outcome can
// never come.
func TestServeDrainDeadlineReleasesWaiters(t *testing.T) {
	for _, transport := range []string{"http", "stream"} {
		t.Run(transport, func(t *testing.T) {
			// Very slow virtual clock: the in-flight request cannot
			// complete within the test.
			srv, client, sc := newTestStreamServer(t, clockwork.Config{}, Options{Speed: 0.001})
			ctx := context.Background()
			if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
				t.Fatalf("RegisterModel: %v", err)
			}
			var front Transport = client
			if transport == "stream" {
				front = sc
			}
			inferDone := make(chan error, 1)
			go func() {
				_, err := front.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Hour})
				inferDone <- err
			}()
			deadline := time.Now().Add(5 * time.Second)
			for serverInflight(srv) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("request never got in flight")
				}
				time.Sleep(2 * time.Millisecond)
			}

			shCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			defer cancel()
			if err := srv.Shutdown(shCtx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Shutdown with in-flight work: %v, want DeadlineExceeded", err)
			}
			select {
			case err := <-inferDone:
				if err == nil {
					t.Fatal("stranded infer should have errored")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("infer call stranded after drain deadline")
			}

			const again = 5 * time.Second
			start := time.Now()
			shCtx2, cancel2 := context.WithTimeout(ctx, again)
			defer cancel2()
			if err := srv.Shutdown(shCtx2); err != nil {
				t.Fatalf("second Shutdown: %v", err)
			}
			if took := time.Since(start); took > again/5 {
				t.Fatalf("second Shutdown took %v of its %v deadline", took, again)
			}
			buf := make([]byte, 1<<20)
			if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "serve.(*Server).Shutdown") {
				t.Fatalf("goroutine left parked in Shutdown:\n%s", stacks)
			}
		})
	}
}

// TestServeEndToEndLoad is the acceptance run: a closed-loop load
// generation against the loopback server completing e2eRequests
// requests with zero lost and zero duplicated responses.
func TestServeEndToEndLoad(t *testing.T) {
	n := e2eRequests
	if testing.Short() {
		n = 5_000
	}
	_, client := newTestServer(t,
		clockwork.Config{Workers: 2, GPUsPerWorker: 2}, 2000)
	ctx := context.Background()
	if _, err := client.RegisterCopies(ctx, "res", "resnet50_v1b", 4); err != nil {
		t.Fatalf("RegisterCopies: %v", err)
	}

	rep, err := RunLoad(ctx, LoadConfig{
		Client:      client,
		SLO:         time.Second,
		Concurrency: 64,
		Duration:    10 * time.Minute, // the request budget terminates the run
		MaxRequests: uint64(n),
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	t.Logf("\n%s", rep.String())
	if rep.Sent != uint64(n) {
		t.Fatalf("sent %d requests, want %d", rep.Sent, n)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d transport errors", rep.Errors)
	}
	if lost := rep.Sent - rep.Completed - rep.Errors; lost != 0 {
		t.Fatalf("%d responses lost", lost)
	}
	if rep.Duplicates != 0 {
		t.Fatalf("%d duplicated responses", rep.Duplicates)
	}
	if rep.Goodput <= 0 {
		t.Fatalf("zero goodput: %+v", rep)
	}
	if rep.WithinSLO == 0 {
		t.Fatalf("nothing within SLO: %+v", rep)
	}
}

// TestServeOpenLoop exercises the Poisson open-loop path.
func TestServeOpenLoop(t *testing.T) {
	_, client := newTestServer(t, clockwork.Config{}, 1000)
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	rep, err := RunLoad(ctx, LoadConfig{
		Client:      client,
		SLO:         time.Second,
		Concurrency: 16,
		Rate:        500,
		Duration:    time.Second,
		Seed:        7,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	t.Logf("\n%s", rep.String())
	if rep.Completed == 0 || rep.WithinSLO == 0 {
		t.Fatalf("open loop served nothing: %+v", rep)
	}
	if lost := rep.Sent - rep.Completed - rep.Errors; lost != 0 || rep.Duplicates != 0 {
		t.Fatalf("integrity: lost=%d dup=%d", lost, rep.Duplicates)
	}
}
