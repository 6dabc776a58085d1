package serve

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"clockwork"
)

// newTestStreamServer wires a live system behind both front doors: an
// HTTP listener (for admin/registration convenience) and a stream
// listener. It returns the server, an HTTP client, and a connected
// StreamClient.
func newTestStreamServer(t *testing.T, cfg clockwork.Config, opts Options) (*Server, *Client, *StreamClient) {
	t.Helper()
	sys, err := clockwork.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := New(sys, opts)
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen http: %v", err)
	}
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen stream: %v", err)
	}
	go func() { _ = srv.Serve(hln) }()
	streamErr := make(chan error, 1)
	go func() { streamErr <- srv.ServeStream(sln) }()
	client := NewClient(hln.Addr().String(), nil)
	sc, err := DialStream(sln.Addr().String(), StreamOptions{Conns: 2})
	if err != nil {
		t.Fatalf("DialStream: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-streamErr; err != nil {
			t.Errorf("ServeStream: %v", err)
		}
		sc.Close()
	})
	return srv, client, sc
}

func TestStreamRoundTrip(t *testing.T) {
	_, client, sc := newTestStreamServer(t,
		clockwork.Config{Workers: 1, GPUsPerWorker: 1}, Options{Speed: 1000})
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "resnet", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}

	models, err := sc.Models(ctx)
	if err != nil || len(models) != 1 || models[0] != "resnet" {
		t.Fatalf("Models = %v, %v; want [resnet]", models, err)
	}

	res, err := sc.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if !res.Success || res.RequestID == 0 || res.Latency <= 0 || res.Model != "resnet" {
		t.Fatalf("implausible result: %+v", res)
	}
	if !res.ColdStart {
		t.Errorf("first request should be a cold start: %+v", res)
	}

	// Concurrent multiplexed submissions over the shared connections.
	const n = 64
	var wg sync.WaitGroup
	results := make([]clockwork.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sc.Infer(ctx, clockwork.Request{Model: "resnet", SLO: time.Second})
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !results[i].Success {
			t.Fatalf("request %d failed: %+v", i, results[i])
		}
		if seen[results[i].RequestID] {
			t.Fatalf("request ID %d delivered to two callers", results[i].RequestID)
		}
		seen[results[i].RequestID] = true
	}
}

func TestStreamSubmitBatch(t *testing.T) {
	_, client, sc := newTestStreamServer(t,
		clockwork.Config{Workers: 1, GPUsPerWorker: 2}, Options{Speed: 1000})
	ctx := context.Background()
	if _, err := client.RegisterCopies(ctx, "res", "resnet50_v1b", 2); err != nil {
		t.Fatalf("RegisterCopies: %v", err)
	}
	reqs := make([]clockwork.Request, 16)
	for i := range reqs {
		reqs[i] = clockwork.Request{Model: "res#" + string(rune('0'+i%2)), SLO: time.Second}
	}
	// One bad request in the middle: positional outcome, not a batch
	// failure.
	reqs[7].Model = "no-such-model"
	outs, err := sc.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if len(outs) != len(reqs) {
		t.Fatalf("got %d outcomes for %d requests", len(outs), len(reqs))
	}
	for i, o := range outs {
		if i == 7 {
			if !errors.Is(o.Err, clockwork.ErrUnknownModel) {
				t.Fatalf("outcome %d: %v, want ErrUnknownModel", i, o.Err)
			}
			continue
		}
		if o.Err != nil || !o.Result.Success {
			t.Fatalf("outcome %d: %+v, %v", i, o.Result, o.Err)
		}
		if o.Result.Model != reqs[i].Model {
			t.Fatalf("outcome %d: model %q, want %q", i, o.Result.Model, reqs[i].Model)
		}
	}
}

// TestStreamTypedErrors: the error taxonomy must round-trip the binary
// wire exactly as it does JSON.
func TestStreamTypedErrors(t *testing.T) {
	_, client, sc := newTestStreamServer(t, clockwork.Config{}, Options{Speed: 1000})
	ctx := context.Background()

	_, err := sc.Infer(ctx, clockwork.Request{Model: "nope", SLO: time.Second})
	if !errors.Is(err, clockwork.ErrUnknownModel) {
		t.Fatalf("unknown model: got %v, want ErrUnknownModel", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "unknown_model" {
		t.Fatalf("unknown model: got %v, want APIError{unknown_model}", err)
	}

	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	if _, err := sc.Infer(ctx, clockwork.Request{Model: "m", SLO: -time.Second}); !errors.Is(err, clockwork.ErrInvalidRequest) {
		t.Fatalf("bad SLO: got %v, want ErrInvalidRequest", err)
	}
}

// TestStreamBackpressure: with a one-slot admission window and a slow
// clock, concurrent submissions beyond the window get the typed
// overloaded error on both transports, and HTTP carries Retry-After.
func TestStreamBackpressure(t *testing.T) {
	srv, client, sc := newTestStreamServer(t, clockwork.Config{},
		Options{Speed: 1, MaxInFlight: 1})
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}

	// Occupy the single slot with a real-time (slow) request.
	first := make(chan error, 1)
	go func() {
		_, err := sc.Infer(ctx, clockwork.Request{Model: "m", SLO: 30 * time.Second})
		first <- err
	}()
	// Wait until the slot is actually held.
	deadline := time.Now().Add(5 * time.Second)
	for serverInflight(srv) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the window")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if _, err := sc.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("stream overload: got %v, want ErrOverloaded", err)
	}
	_, err := client.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("http overload: got %v, want ErrOverloaded", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 429 {
		t.Fatalf("http overload: got %v, want 429 APIError", err)
	}

	if err := <-first; err != nil {
		t.Fatalf("first request: %v", err)
	}
}

// TestStreamConnDrop: killing the connection mid-request surfaces a
// typed transport error client-side and releases the server's
// in-flight accounting once the orphaned request completes.
func TestStreamConnDrop(t *testing.T) {
	// Real-time speed: the request lasts long enough (milliseconds of
	// wall time) for the drop to land while it is in flight, yet
	// completes quickly enough to watch the accounting release.
	srv, client, sc := newTestStreamServer(t, clockwork.Config{}, Options{Speed: 1})
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}

	inferDone := make(chan error, 1)
	go func() {
		_, err := sc.Infer(ctx, clockwork.Request{Model: "m", SLO: 30 * time.Second})
		inferDone <- err
	}()
	// Let the request get in flight, then cut every client connection.
	deadline := time.Now().Add(5 * time.Second)
	for serverInflight(srv) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never got in flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	sc.Close()

	select {
	case err := <-inferDone:
		if !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("dropped conn: got %v, want ErrStreamClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Infer never returned after connection drop")
	}
	// The orphaned request still runs to its outcome on the engine; its
	// completion callback must release the admission slot even though
	// the connection is gone.
	deadline = time.Now().Add(10 * time.Second)
	for serverInflight(srv) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight accounting stuck at %d after conn drop", serverInflight(srv))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// serverInflight reads the admission window occupancy (test-only).
func serverInflight(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.win.InFlight()
}

// waitInflight polls until the admission window holds n requests, so a
// test that drains knows every one of them was admitted first.
func waitInflight(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for serverInflight(s) != n {
		if time.Now().After(deadline) {
			t.Fatalf("admission window holds %d requests, want %d", serverInflight(s), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamPartialBatchReleasesAdmission: a connection that dies
// mid-coalesce — valid infer frames followed by a truncated one in the
// same segment — must release the admission slots of the never-injected
// requests, and the pooled batch must not leak its ghost entries into
// a later connection.
func TestStreamPartialBatchReleasesAdmission(t *testing.T) {
	srv, client, sc := newTestStreamServer(t, clockwork.Config{},
		Options{Speed: 1000, MaxInFlight: 4})
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}

	// Hand-build one TCP segment: two complete infer frames plus a
	// truncated header, so the reader admits two requests and then
	// fails before injecting them.
	raw, err := net.Dial("tcp", streamAddrOf(t, srv))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var seg []byte
	for corr := uint64(1); corr <= 2; corr++ {
		// payload: corr, slo=1s, priority=0, maxbatch=0, model "m", tenant ""
		payload := []byte{byte(corr)}
		payload = appendVarint(payload, int64(time.Second))
		payload = append(payload, 0, 0) // priority, maxbatch varint(0)
		payload = append(payload, 1, 'm', 0)
		seg = append(seg, byte(len(payload)), 0, 0, 0, 1 /*TypeInfer*/)
		seg = append(seg, payload...)
	}
	seg = append(seg, 9, 0, 0, 0) // truncated header: missing type byte
	if _, err := raw.Write(seg); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw.Close()

	// The two admitted-but-never-injected slots must come back.
	deadline := time.Now().Add(5 * time.Second)
	for serverInflight(srv) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("admission slots leaked: inflight=%d", serverInflight(srv))
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A fresh request must still fit the window and get exactly its
	// own response (no ghost entries from the dead connection's batch).
	res, err := sc.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second})
	if err != nil || !res.Success {
		t.Fatalf("post-leak Infer: %+v, %v", res, err)
	}
}

// streamAddrOf digs the stream listener address out of the server
// (test-only; newTestStreamServer registers exactly one).
func streamAddrOf(t *testing.T, s *Server) string {
	t.Helper()
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	for ln := range s.streamLns {
		return ln.Addr().String()
	}
	t.Fatal("no stream listener")
	return ""
}

// appendVarint is a tiny zig-zag varint encoder for the hand-built
// frames above (mirrors encoding/binary.AppendVarint).
func appendVarint(b []byte, v int64) []byte {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	for uv >= 0x80 {
		b = append(b, byte(uv)|0x80)
		uv >>= 7
	}
	return append(b, byte(uv))
}

// TestStreamGracefulDrain: Shutdown while stream requests are in
// flight lets them complete and flushes their responses before the
// sockets close.
func TestStreamGracefulDrain(t *testing.T) {
	// Slow enough to hold all eight in flight; see TestServeGracefulDrain.
	srv, client, sc := newTestStreamServer(t, clockwork.Config{}, Options{Speed: 0.05})
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
			results[i], errs[i] = sc.Infer(ctx, clockwork.Request{Model: "m", SLO: 2 * time.Second})
		}(i)
	}
	waitInflight(t, srv, n)
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
	// Post-drain submissions are refused (draining error frame or
	// closed connection, depending on timing).
	if _, err := sc.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second}); err == nil {
		t.Fatal("Infer after Shutdown should fail")
	}
}

// TestStreamEndToEndLoad is the stream transport's integrity
// acceptance run: a closed-loop load generation over the binary wire
// completing e2eRequests requests with zero lost and zero duplicated
// responses.
func TestStreamEndToEndLoad(t *testing.T) {
	n := e2eRequests
	if testing.Short() {
		n = 5_000
	}
	_, client, sc := newTestStreamServer(t,
		clockwork.Config{Workers: 2, GPUsPerWorker: 2}, Options{Speed: 2000})
	ctx := context.Background()
	if _, err := client.RegisterCopies(ctx, "res", "resnet50_v1b", 4); err != nil {
		t.Fatalf("RegisterCopies: %v", err)
	}

	rep, err := RunLoad(ctx, LoadConfig{
		Transport:   sc,
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
	if lost := rep.Sent - rep.Completed - rep.Errors - rep.Shed; lost != 0 {
		t.Fatalf("%d responses lost", lost)
	}
	if rep.Duplicates != 0 {
		t.Fatalf("%d duplicated responses", rep.Duplicates)
	}
	if rep.Goodput <= 0 || rep.WithinSLO == 0 {
		t.Fatalf("no goodput: %+v", rep)
	}
}

// TestStreamBatchedLoad drives the pipelined SubmitBatch path through
// RunLoad and checks the same integrity invariants.
func TestStreamBatchedLoad(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	_, client, sc := newTestStreamServer(t,
		clockwork.Config{Workers: 2, GPUsPerWorker: 2}, Options{Speed: 2000})
	ctx := context.Background()
	if _, err := client.RegisterCopies(ctx, "res", "resnet50_v1b", 4); err != nil {
		t.Fatalf("RegisterCopies: %v", err)
	}
	rep, err := RunLoad(ctx, LoadConfig{
		Transport:   sc,
		Batch:       32,
		SLO:         time.Second,
		Concurrency: 8,
		Duration:    10 * time.Minute,
		MaxRequests: uint64(n),
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	t.Logf("\n%s", rep.String())
	if rep.Sent != uint64(n) {
		t.Fatalf("sent %d requests, want %d", rep.Sent, n)
	}
	if lost := rep.Sent - rep.Completed - rep.Errors - rep.Shed; lost != 0 || rep.Duplicates != 0 {
		t.Fatalf("integrity: lost=%d dup=%d", lost, rep.Duplicates)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d transport errors", rep.Errors)
	}
}
