package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clockwork"
	"clockwork/journal"
)

// TestIdleAutoscaleJournalsNothing: observers do not step the engine,
// so they leave nothing to journal. An idle journaled server's
// autoscale ticks, a /metrics scrape and a stats read append no record;
// an operator's window pin appends exactly its one Autoscale record,
// and the epoch still replays.
func TestIdleAutoscaleJournalsNothing(t *testing.T) {
	cfg := clockwork.Config{Workers: 1, GPUsPerWorker: 1, Seed: 3}
	sys, err := clockwork.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.RegisterModel("m", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	dir := t.TempDir()
	rec, err := journal.Create(dir, sys, cfg, journal.Options{Fsync: journal.FsyncNever, Speed: 1000})
	if err != nil {
		t.Fatalf("journal.Create: %v", err)
	}
	srv := New(sys, Options{Speed: 1000, Journal: rec, Autoscale: &AutoscaleConfig{Period: 10 * time.Millisecond}})
	ts := httptest.NewServer(srv.Handler())
	client := NewClient(ts.URL, nil)
	ctx := context.Background()
	shutdown := func() {
		ts.Close()
		sctx, cancel := context.WithTimeout(ctx, 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}
	defer shutdown()

	ticks := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for srv.ascTicks.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("autoscaler ticked %d times, waited for %d", srv.ascTicks.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	records := func() uint64 { return rec.Status().Records }

	ticks(2) // the first tick's barrier has returned
	before, from := records(), srv.ascTicks.Load()
	ticks(from + 50)
	if got := records(); got != before {
		t.Fatalf("%d idle autoscale ticks appended %d records", srv.ascTicks.Load()-from, got-before)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	resp.Body.Close()
	if _, err := client.Stats(ctx); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if got := records(); got != before {
		t.Fatalf("a /metrics scrape and a stats read appended %d records", got-before)
	}

	// The pin also pauses the loop: an idle loop grows a window below
	// its maximum, and those ticks would record their own decisions.
	resp, err = http.Post(ts.URL+"/v1/admin/autoscaler", "application/json", strings.NewReader(`{"enabled":false,"window":32}`))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/admin/autoscaler: %v, %v", resp, err)
	}
	resp.Body.Close()
	if got := records(); got != before+1 {
		t.Fatalf("a window pin appended %d records, want 1", got-before)
	}
	shutdown()

	ep, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	last := ep.Records[len(ep.Records)-1].Op
	if a, ok := last.(journal.Autoscale); !ok || a.Window != 32 {
		t.Fatalf("last record carries %#v, want the pinned window 32", last)
	}
	if res, err := journal.ReplayEpoch(ep); err != nil || !res.Match {
		t.Fatalf("replay: %v, %+v", err, res)
	}
}
