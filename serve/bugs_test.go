package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"clockwork"
)

// newOptsServer is newTestServer with full Options control (the
// admission-window tests need MaxInFlight and slow speeds).
func newOptsServer(t *testing.T, cfg clockwork.Config, opts Options) (*Server, *Client) {
	t.Helper()
	sys, err := clockwork.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := New(sys, opts)
	ts := httptest.NewServer(srv.Handler())
	client := NewClient(ts.URL, nil)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return srv, client
}

// TestHTTPDisconnectKeepsWindowCharged is the admission-leak
// regression: a client that disconnects mid-request must NOT release
// its admission slot — the request still occupies the engine, so the
// MaxInFlight window has to keep counting it until the outcome exists.
// The old handler released on handler return (defer), so a disconnect
// reopened the window while the engine was still busy.
func TestHTTPDisconnectKeepsWindowCharged(t *testing.T) {
	// Speed 0.02: the first (cold-start) request costs ~9ms of virtual
	// time = roughly half a second of wall time, a wide window to
	// disconnect inside.
	_, client := newOptsServer(t,
		clockwork.Config{Workers: 1, GPUsPerWorker: 1, ExactTiming: true},
		Options{Speed: 0.02, MaxInFlight: 1})
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}

	ctxA, cancelA := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := client.Infer(ctxA, clockwork.Request{Model: "m", SLO: time.Minute})
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond) // admitted and submitted, far from done
	cancelA()                          // client walks away
	if err := <-errc; err == nil {
		t.Fatal("disconnected Infer reported success")
	}
	// Give the abandoned handler time to unwind: with the old
	// release-on-return behaviour the window would be open again by now.
	time.Sleep(100 * time.Millisecond)

	if _, err := client.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Minute}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("window reopened while abandoned request still in flight: got %v, want ErrOverloaded", err)
	}

	// The slot is charged until the OUTCOME, not forever: once the
	// abandoned request completes inside the engine, the window reopens.
	deadline := time.Now().Add(20 * time.Second)
	for {
		_, err := client.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Minute})
		if err == nil {
			return
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("Infer: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("admission slot never released after the abandoned request's outcome")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestWriteJSONEncodeFailure: an unencodable value must produce a real
// 500 errorResponse, not the silent empty 200 the old streaming-encoder
// path wrote.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]any{"x": math.NaN()}) // NaN has no JSON encoding
	if rec.Code != 500 {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var er struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("500 body is not an errorResponse: %v (%q)", err, rec.Body.String())
	}
	if er.Code != "encode_failed" || er.Error == "" {
		t.Fatalf("errorResponse = %+v", er)
	}
}

// TestWriteJSONSuccessUnchanged: the buffer-encode path still writes
// normal responses byte-for-byte.
func TestWriteJSONSuccessUnchanged(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]int{"n": 7})
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if got := rec.Body.String(); got != "{\"n\":7}\n" {
		t.Fatalf("body = %q", got)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

// TestStreamInjectAfterStopReleasesWindow is the slot-strand
// regression: frames arriving after the live driver stopped used to be
// silently dropped by Inject with their admission slots still held, so
// Shutdown's drain hung until its deadline. Now the abort path answers
// every item with an error frame and releases its slot. Both front
// doors report the event as the same typed error, ErrLiveStopped.
func TestStreamInjectAfterStopReleasesWindow(t *testing.T) {
	srv, client, sc := newTestStreamServer(t,
		clockwork.Config{Workers: 1, GPUsPerWorker: 1}, Options{Speed: 1000, MaxInFlight: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}

	// Stop the driver out from under the server (an embedding caller may
	// do this directly; Shutdown has not begun, so admission still says
	// yes).
	srv.Live().Stop()

	// The infer must come back as a typed error, not hang, and the
	// models control frame must be answered too — over either transport.
	for _, front := range []struct {
		name string
		tr   Transport
	}{{"stream", sc}, {"http", client}} {
		if _, err := front.tr.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second}); !errors.Is(err, clockwork.ErrLiveStopped) {
			t.Fatalf("%s Infer after driver stop: %v, want ErrLiveStopped", front.name, err)
		}
		if _, err := front.tr.Models(ctx); !errors.Is(err, clockwork.ErrLiveStopped) {
			t.Fatalf("%s Models after driver stop: %v, want ErrLiveStopped", front.name, err)
		}
	}

	// The admission slots must all be back: a stranded slot would hang
	// the Cleanup Shutdown (and fail the test there), but check
	// directly as well.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := serverInflight(srv)
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight = %d after inject-after-stop, want 0", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSequentialClientNeverShed: at a window of one, a client that
// sends its next request only after the previous answer must never be
// shed, over either transport. The slot has to be free by the time
// the answer can reach the client; an answer that overtakes its own
// release makes the next request a 429 (or an overloaded frame).
func TestSequentialClientNeverShed(t *testing.T) {
	srv, client, sc := newTestStreamServer(t, clockwork.Config{Workers: 1, GPUsPerWorker: 1},
		Options{Speed: 2000, MaxInFlight: 1})
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	req := clockwork.Request{Model: "m", SLO: time.Minute}
	for _, tr := range []struct {
		name  string
		infer func(context.Context, clockwork.Request) (clockwork.Result, error)
	}{{"http", client.Infer}, {"stream", sc.Infer}} {
		for i := 0; i < 300; i++ {
			if _, err := tr.infer(ctx, req); err != nil {
				t.Fatalf("%s request %d: %v", tr.name, i, err)
			}
		}
	}
	srv.mu.Lock()
	shed := srv.win.Shed()
	srv.mu.Unlock()
	if shed != 0 {
		t.Fatalf("window shed %d requests from a sequential client", shed)
	}
}
