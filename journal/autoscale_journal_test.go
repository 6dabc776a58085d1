package journal_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"clockwork"
	"clockwork/journal"
	"clockwork/serve"
)

// TestAutoscalerDecisionsReplayDeterministically closes the loop
// between the closed control loop and the durable one: a journaled
// run with the autoscaler enabled — its decisions shrinking the
// window and adding workers mid-traffic, plus one operator override
// through the admin plane — must replay to a hash MATCH. The property
// this pins: every autoscaler decision is injection-sourced (one
// engine step, one journal record, applied at a virtual instant), so
// the replay re-applies the recorded decisions without re-deriving
// them and lands on the identical ack stream. A wall-clock-sourced
// decision would shift engine steps between record and replay and
// break the hash.
func TestAutoscalerDecisionsReplayDeterministically(t *testing.T) {
	dir := t.TempDir()
	cfg := clockwork.Config{Workers: 1, GPUsPerWorker: 1, Seed: 3}
	sys, err := clockwork.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec, err := journal.Create(dir, sys, cfg, journal.Options{
		Fsync: journal.FsyncNever, Speed: 2000, MaxInFlight: 32,
	})
	if err != nil {
		t.Fatalf("journal.Create: %v", err)
	}
	// Aggressive loop: every period with violations shrinks and asks
	// for a worker (sustain/cooldown 1), so a short burst of doomed
	// traffic is guaranteed to journal real decisions.
	asc := serve.AutoscaleConfig{
		Period:    500 * time.Millisecond,
		MinWindow: 2, MaxWindow: 32,
		MinWorkers: 1, MaxWorkers: 3,
		GrowSustain: 1, WorkerSustain: 1, Cooldown: 1,
	}
	srv := serve.New(sys, serve.Options{Speed: 2000, MaxInFlight: 32, Journal: rec, Autoscale: &asc})
	ts := httptest.NewServer(srv.Handler())
	client := serve.NewClient(ts.URL, nil)
	shutdown := func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}

	ctx := context.Background()
	if err := client.RegisterModel(ctx, "m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}

	// Doomed traffic: a 1ms SLO no model can meet, so every period
	// that completes requests completes them as violations. It flows
	// until the poll below has seen the window shrink: once it stops,
	// idle periods regrow the window (GrowSustain 1) to its start
	// within a few wall milliseconds at this speed, faster than a poll
	// is sure to look.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := client.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Millisecond}); err != nil {
					time.Sleep(time.Millisecond) // shed: back off, not spin
				}
			}
		}()
	}
	stopTraffic := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopTraffic()

	// The loop runs on wall ticks; wait until the admin plane reports
	// it actually moved (window shrank below its start, ≥ 1 decision).
	getStatus := func() serve.AutoscalerStatusResponse {
		resp, err := http.Get(ts.URL + "/v1/admin/autoscaler")
		if err != nil {
			t.Fatalf("GET autoscaler: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET autoscaler: status %d: %s", resp.StatusCode, body)
		}
		var st serve.AutoscalerStatusResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("autoscaler status: %v (%s)", err, body)
		}
		return st
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStatus()
		if st.Decisions >= 1 && st.Window < 32 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("autoscaler never moved: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	stopTraffic()

	// One operator override through the admin plane: journaled as an
	// autoscale record via the same injection path as loop decisions.
	req, _ := json.Marshal(map[string]int{"window": 24})
	resp, err := http.Post(ts.URL+"/v1/admin/autoscaler", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatalf("POST autoscaler: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST autoscaler: status %d", resp.StatusCode)
	}

	// A little more traffic after the override so replay crosses it.
	for i := 0; i < 8; i++ {
		if _, err := client.Infer(ctx, clockwork.Request{Model: "m", SLO: time.Second}); err != nil {
			t.Fatalf("Infer: %v", err)
		}
	}
	final := getStatus()
	shutdown()

	ep, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// The window moves only through autoscale records, the only ones
	// that carry a Window. A loop shrink is a record that lowers it to
	// anything but the operator's 24: growth never lowers it, and
	// halving never lands on 24 under a MaxWindow of 32.
	shrunk, window := false, 32
	for i := range ep.Records {
		if a, ok := ep.Records[i].Op.(journal.Autoscale); ok && a.Window > 0 {
			shrunk = shrunk || (a.Window < window && a.Window != 24)
			window = a.Window
		}
	}
	if !shrunk {
		t.Fatalf("no shrink decision was journaled (final autoscaler: %+v)", final)
	}
	res, err := journal.ReplayEpoch(ep)
	if err != nil {
		t.Fatalf("ReplayEpoch: %v", err)
	}
	if !res.Match {
		t.Fatalf("replay mismatch with autoscaler decisions in the journal:\n recorded %s (%d acks)\n replayed %s (%d acks)\n final autoscaler: %+v",
			res.RecordedHash, res.RecordedAcks, res.ReplayedHash, res.ReplayedAcks, final)
	}
	if res.RecordedAcks < 9 {
		t.Fatalf("recorded only %d acks, want >= 9", res.RecordedAcks)
	}
}

// TestAutoscalerAdminPinRecovers is the operator round trip on a
// journaled daemon with the loop on: a window beyond the bounds
// clamps, a paused loop keeps an operator's pinned window, and
// recovery carries the pinned window into the next epoch.
func TestAutoscalerAdminPinRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := clockwork.Config{Workers: 1, GPUsPerWorker: 1, Seed: 3}
	sys, err := clockwork.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec, err := journal.Create(dir, sys, cfg, journal.Options{Fsync: journal.FsyncNever, Speed: 2000})
	if err != nil {
		t.Fatalf("journal.Create: %v", err)
	}
	// A short period: an enabled loop ticks hundreds of times while
	// the test waits, and idle periods would regrow any pinned window.
	asc := serve.AutoscaleConfig{Period: 100 * time.Millisecond, MinWindow: 8, MaxWindow: 512}
	srv := serve.New(sys, serve.Options{Speed: 2000, Journal: rec, Autoscale: &asc})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	call := func(method, body string) serve.AutoscalerStatusResponse {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+"/v1/admin/autoscaler", bytes.NewBufferString(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s autoscaler: %v", method, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s autoscaler %s: status %d: %s", method, body, resp.StatusCode, raw)
		}
		var st serve.AutoscalerStatusResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("autoscaler status: %v (%s)", err, raw)
		}
		return st
	}

	if st := call(http.MethodPost, `{"enabled": false, "window": 100000}`); st.Enabled || st.Window != 512 {
		t.Fatalf("window above MaxWindow: %+v, want paused at 512", st)
	}
	if st := call(http.MethodPost, `{"window": 1}`); st.Window != 8 {
		t.Fatalf("window below MinWindow: %+v, want 8", st)
	}
	if st := call(http.MethodPost, `{"enabled": false, "window": 64}`); st.Enabled || st.Window != 64 {
		t.Fatalf("pin: %+v, want paused at 64", st)
	}
	time.Sleep(50 * time.Millisecond) // ~1,000 control periods at speed 2000
	if st := call(http.MethodGet, ""); st.Enabled || st.Window != 64 {
		t.Fatalf("pinned window did not stick: %+v, want paused at 64", st)
	}
	if got := srv.MaxInFlight(); got != 64 {
		t.Fatalf("admission window = %d, want the pinned 64", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	ep, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	_, carry, _, err := ep.Rebuild()
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if carry.MaxInFlight != 64 {
		t.Fatalf("recovered MaxInFlight = %d, want the pinned 64", carry.MaxInFlight)
	}
}
