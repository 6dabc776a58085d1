package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clockwork"
)

// newTracedTestServer is newTestServer with the flight recorder on at
// rate 1.
func newTracedTestServer(t *testing.T, cfg clockwork.Config, speed float64) (*Server, *Client, string) {
	t.Helper()
	sys, err := clockwork.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := New(sys, Options{Speed: speed, Trace: &TraceConfig{Enabled: true, SampleRate: 1}})
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
	return srv, client, ts.URL
}

// perfettoDump is the subset of the Chrome trace-event envelope the
// tests inspect.
type perfettoDump struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		Dur   float64        `json:"dur"`
		PID   int            `json:"pid"`
		TID   uint64         `json:"tid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	OtherData map[string]any `json:"otherData"`
}

func getTraceDump(t *testing.T, url string) perfettoDump {
	t.Helper()
	resp, err := http.Get(url + "/v1/admin/trace")
	if err != nil {
		t.Fatalf("GET /v1/admin/trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/admin/trace: status %d", resp.StatusCode)
	}
	var dump perfettoDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("trace dump is not valid JSON: %v", err)
	}
	return dump
}

func TestTraceEndpointExportsLifecycle(t *testing.T) {
	_, client, url := newTracedTestServer(t, clockwork.Config{Workers: 1, GPUsPerWorker: 1}, 1000)
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "resnet", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond}); err != nil {
			t.Fatalf("Infer: %v", err)
		}
	}
	// An unmeetable SLO produces a violation trace (always retained).
	if res, err := client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: time.Nanosecond}); err != nil {
		t.Fatalf("Infer (tight SLO): %v", err)
	} else if res.Success {
		t.Fatalf("nanosecond SLO should be unmeetable: %+v", res)
	}

	dump := getTraceDump(t, url)
	var requests, stages, violations, execs int
	for _, ev := range dump.TraceEvents {
		switch ev.Args["kind"] {
		case "request":
			requests++
		case "stage":
			stages++
		case "violation":
			violations++
		}
		if ev.Phase == "X" && ev.PID == 1 && strings.HasPrefix(ev.Name, "INFER ") {
			execs++
		}
	}
	if requests != 6 {
		t.Fatalf("want 6 request spans, got %d", requests)
	}
	if stages == 0 || execs == 0 {
		t.Fatalf("missing stage (%d) or exec (%d) spans", stages, execs)
	}
	if violations == 0 {
		t.Fatal("the tight-SLO request should have emitted a violation instant")
	}
	// Every stage span nests in a request span on its pid/tid track,
	// within 1 µs for the float round trip.
	for _, st := range dump.TraceEvents {
		if st.Args["kind"] != "stage" {
			continue
		}
		nested := false
		for _, rq := range dump.TraceEvents {
			nested = nested || rq.Args["kind"] == "request" && rq.PID == st.PID && rq.TID == st.TID &&
				rq.TS <= st.TS+1 && st.TS+st.Dur <= rq.TS+rq.Dur+1
		}
		if !nested {
			t.Fatalf("stage span %q [%g, +%g] on %d/%d nests in no request span", st.Name, st.TS, st.Dur, st.PID, st.TID)
		}
	}
	// The impossible-SLO request's own span carries the violation and
	// its cause.
	tight := 0
	for _, ev := range dump.TraceEvents {
		if ev.Args["kind"] != "request" || ev.Args["slo_ms"] != 1e-6 {
			continue
		}
		tight++
		if cause, _ := ev.Args["cause"].(string); ev.Args["violation"] != true || cause == "" || cause == "none" {
			t.Fatalf("tight-SLO request span: violation=%v cause=%q", ev.Args["violation"], ev.Args["cause"])
		}
	}
	if tight != 1 {
		t.Fatalf("found %d tight-SLO request spans, want 1", tight)
	}
	if dump.OtherData["clockwork"] != "flight-recorder" {
		t.Fatalf("otherData missing recorder tag: %v", dump.OtherData)
	}
	// Live mode must stamp the wall↔virtual correlation.
	if _, ok := dump.OtherData["wall_origin"]; !ok {
		t.Fatalf("otherData missing wall_origin: %v", dump.OtherData)
	}
}

func TestTraceAdminControls(t *testing.T) {
	srv, client, url := newTracedTestServer(t, clockwork.Config{Workers: 1, GPUsPerWorker: 1}, 1000)
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "resnet", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}

	post := func(body string) TraceStatusResponse {
		t.Helper()
		resp, err := http.Post(url+"/v1/admin/trace", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/admin/trace: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST /v1/admin/trace: status %d: %s", resp.StatusCode, b)
		}
		var st TraceStatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		return st
	}

	st := post(`{"enabled": false, "sample_rate": 0.25}`)
	if st.Enabled || st.SampleRate != 0.25 {
		t.Fatalf("controls not applied: %+v", st)
	}
	if srv.flight.Enabled() {
		t.Fatal("recorder still enabled after POST disabled")
	}
	// Disabled: new requests leave no trace.
	if _, err := client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond}); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if st = post(`{}`); st.Stats.Finalized != 0 {
		t.Fatalf("disabled recorder finalized traces: %+v", st.Stats)
	}

	st = post(`{"enabled": true, "sample_rate": 1}`)
	if !st.Enabled || st.SampleRate != 1 {
		t.Fatalf("re-enable not applied: %+v", st)
	}
	if _, err := client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond}); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if st = post(`{}`); st.Stats.Finalized != 1 || st.Stats.SampledKept != 1 {
		t.Fatalf("re-enabled recorder missed the request: %+v", st.Stats)
	}

	// Out-of-range rates are rejected.
	resp, err := http.Post(url+"/v1/admin/trace", "application/json", strings.NewReader(`{"sample_rate": 1.5}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sample_rate 1.5 should be a 400, got %d", resp.StatusCode)
	}
}

// scrapeMetrics fetches /metrics and returns the body.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	return string(body)
}

// TestMetricsExposition scrapes a server with tracing and the
// autoscaler on, after load that met its SLO, missed an impossible one
// and was shed at the admission window: the families those paths feed
// are present, the shed counter equals the 429s the clients saw, the
// window gauge equals the window in force, and the body passes
// lintMetrics.
func TestMetricsExposition(t *testing.T) {
	srv, client := newOptsServer(t, clockwork.Config{Workers: 1, GPUsPerWorker: 1}, Options{
		Speed:     1000,
		Trace:     &TraceConfig{Enabled: true, SampleRate: 1},
		Autoscale: &AutoscaleConfig{MinWindow: 1, MaxWindow: 1},
	})
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "resnet", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	if _, err := client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond}); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if _, err := client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: time.Nanosecond}); err != nil {
		t.Fatalf("Infer: %v", err)
	}

	// Concurrent callers against a window of one: rounds until at least
	// one is refused.
	var refused atomic.Uint64
	deadline := time.Now().Add(10 * time.Second)
	for refused.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no request was shed at a window of 1")
		}
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					_, err := client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond})
					if errors.Is(err, ErrOverloaded) {
						refused.Add(1)
					} else if err != nil {
						t.Errorf("Infer: %v", err)
					}
				}
			}()
		}
		wg.Wait()
	}

	body := scrapeMetrics(t, client.base)
	for _, want := range []string{
		`clockwork_stage_seconds{stage="exec",quantile="0.5"}`,
		`clockwork_stage_seconds_count{stage="queue"}`,
		"clockwork_predict_error_seconds_count",
		"clockwork_slo_miss_provenance_total{cause=",
		"clockwork_trace_enabled 1",
		"clockwork_trace_sample_rate 1",
		"clockwork_autoscaler_enabled 1",
		"clockwork_autoscaler_ticks_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if got := sampleValue(t, body, "clockwork_admission_shed_total"); got != float64(refused.Load()) {
		t.Errorf("clockwork_admission_shed_total = %v, clients saw %d 429s", got, refused.Load())
	}
	if got := sampleValue(t, body, "clockwork_autoscaler_window"); got != float64(srv.MaxInFlight()) {
		t.Errorf("clockwork_autoscaler_window = %v, window in force %d", got, srv.MaxInFlight())
	}
	// Every outcome counter reads the one ledger: the outcome totals and
	// the latency summary's count agree.
	outcomes := sampleValue(t, body, "clockwork_succeeded_total") + sampleValue(t, body, "clockwork_failed_total")
	if count := sampleValue(t, body, "clockwork_latency_seconds_count"); outcomes != count {
		t.Errorf("succeeded + failed = %v, latency count %v", outcomes, count)
	}
	lintMetrics(t, body)
}

// sampleValue returns the value of the unlabelled sample name in a
// /metrics body.
func sampleValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no sample %s", name)
	return 0
}

// seriesKey matches a sample line's series: a metric name and an
// optional label set.
var seriesKey = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})?$`)

// lintMetrics asserts the exposition-format hygiene of a /metrics
// body: every sample line parses, no series (name and labels) appears
// twice, and every family — a summary's or histogram's _sum, _count
// and _bucket samples belong to their base name — declares HELP and
// TYPE exactly once.
func lintMetrics(t *testing.T, body string) {
	t.Helper()
	helps := map[string]int{}
	types := map[string]int{}
	series := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			helps[strings.Fields(line)[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			types[strings.Fields(line)[2]]++
		case strings.HasPrefix(line, "#"):
		default:
			i := strings.LastIndexByte(line, ' ')
			if i <= 0 || !seriesKey.MatchString(line[:i]) {
				t.Errorf("unparseable sample line %q", line)
				continue
			}
			series[line[:i]]++
		}
	}
	family := func(name string) string {
		for _, suf := range []string{"_sum", "_count", "_bucket"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && (helps[base] > 0 || types[base] > 0) {
				return base
			}
		}
		return name
	}
	checked := map[string]bool{}
	for key, n := range series {
		if n > 1 {
			t.Errorf("series %s appears %d times", key, n)
		}
		name, _, _ := strings.Cut(key, "{")
		if fam := family(name); !checked[fam] {
			checked[fam] = true
			if helps[fam] != 1 || types[fam] != 1 {
				t.Errorf("family %s: HELP×%d TYPE×%d (want exactly 1 each)", fam, helps[fam], types[fam])
			}
		}
	}
	for fam, n := range helps {
		if n > 1 {
			t.Errorf("family %s: HELP declared %d times", fam, n)
		}
	}
	for fam, n := range types {
		if n > 1 {
			t.Errorf("family %s: TYPE declared %d times", fam, n)
		}
	}
}

// TestMetricsScrapeDuringLoad races /metrics and trace-dump scrapes
// against inference load on both transports on a two-shard system:
// every scrape must observe a single virtual instant (the
// stop-the-world barrier) without tripping the race detector or
// deadlocking.
func TestMetricsScrapeDuringLoad(t *testing.T) {
	_, client, sc := newTestStreamServer(t,
		clockwork.Config{Workers: 2, GPUsPerWorker: 1, Shards: 2},
		Options{Speed: 2000, Trace: &TraceConfig{Enabled: true, SampleRate: 1}})
	ctx := context.Background()
	if err := client.RegisterModel(ctx, "resnet", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	httpURL := client.base

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(viaStream bool) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var err error
				if viaStream {
					_, err = sc.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 400 * time.Millisecond})
				} else {
					_, err = client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 400 * time.Millisecond})
				}
				if err != nil {
					t.Errorf("infer: %v", err)
					return
				}
			}
		}(w == 0)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			body := scrapeMetrics(t, httpURL)
			if !strings.Contains(body, "clockwork_requests_total") {
				t.Error("scrape missing core series")
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			getTraceDump(t, httpURL)
		}
	}()
	wg.Wait()

	// After the load drains, the recorder must have seen every request.
	dump := getTraceDump(t, httpURL)
	var requests int
	for _, ev := range dump.TraceEvents {
		if ev.Args["kind"] == "request" {
			requests++
		}
	}
	if requests != 50 {
		t.Fatalf("want 50 request spans across shards, got %d", requests)
	}
}
