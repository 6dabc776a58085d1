package experiments

// The flight recorder's pure-observer contract at experiment scale:
// attaching a recorder at sample rate 1.0 to the golden scenarios must
// leave every output hash bit-identical to the untraced run. Fig2b has
// no control plane (it drives a bare GPU device), so there is nothing
// to attach there; these tests cover the cluster-backed goldens —
// fig5, fig8, the shard-scale sweep, and the autoscale closed loop —
// and then prove the recorder actually captured the runs it observed
// (a disabled recorder would also leave hashes unchanged, vacuously).

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"clockwork/trace"
)

// recorderTap hands each parallel cell its own rate-1.0 recorder and
// keeps them all for post-run inspection.
type recorderTap struct {
	mu   sync.Mutex
	recs []*trace.Recorder
}

func (tap *recorderTap) factory() *trace.Recorder {
	r := trace.New(trace.Options{SampleRate: 1, Enabled: true})
	tap.mu.Lock()
	tap.recs = append(tap.recs, r)
	tap.mu.Unlock()
	return r
}

// finalized sums finalized lifecycles across every cell's recorder.
// The engines are quiescent once the Run* call returns, so Aggregate
// is safe here.
func (tap *recorderTap) finalized() uint64 {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	var n uint64
	for _, r := range tap.recs {
		n += r.Aggregate().Stats.Finalized
	}
	return n
}

func TestGoldenFig5TracedBitIdentical(t *testing.T) {
	t.Parallel()
	tap := &recorderTap{}
	out := RunFig5(Fig5Config{
		SLOs:           []time.Duration{25 * time.Millisecond, 500 * time.Millisecond},
		Duration:       6 * time.Second,
		Warmup:         2 * time.Second,
		Seed:           1,
		FlightRecorder: tap.factory,
	}).String()
	if got := sha(out); got != goldenFig5 {
		t.Errorf("fig5 with rate-1.0 tracing diverged from the golden — the recorder is not a pure observer\n got %s\nwant %s", got, goldenFig5)
	}
	if n := tap.finalized(); n == 0 {
		t.Fatalf("no lifecycles recorded across %d cells — the observer observed nothing", len(tap.recs))
	}
}

func TestGoldenFig8TracedBitIdentical(t *testing.T) {
	t.Parallel()
	tap := &recorderTap{}
	out := RunFig8(Fig8Config{
		Workers: 1, GPUsPerWorker: 2,
		Copies: 2, Functions: 400, Minutes: 6, Seed: 1,
		FlightRecorder: tap.factory,
	}).String()
	if got := sha(out); got != goldenFig8 {
		t.Errorf("fig8 with rate-1.0 tracing diverged from the golden — the recorder is not a pure observer\n got %s\nwant %s", got, goldenFig8)
	}
	if tap.finalized() == 0 {
		t.Fatal("no lifecycles recorded")
	}

	// The same run doubles as the scenario trace dump: the snapshot
	// must export as well-formed Perfetto JSON carrying the replayed
	// lifecycles.
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, tap.recs[0].Snapshot()); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	var dump struct {
		TraceEvents []struct {
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	requests := 0
	for _, ev := range dump.TraceEvents {
		if ev.Args["kind"] == "request" {
			requests++
		}
	}
	if requests == 0 {
		t.Fatalf("exported trace has no request spans (%d events)", len(dump.TraceEvents))
	}
}

func TestGoldenScaleTracedBitIdentical(t *testing.T) {
	t.Parallel()
	tap := &recorderTap{}
	out := RunScale(ScaleConfig{
		Shards:         []int{1, 2, 4},
		Models:         128,
		Requests:       8_000,
		Rate:           3_000,
		Workers:        8,
		GPUsPerWorker:  2,
		Seed:           7,
		FlightRecorder: tap.factory,
	}).String()
	if got := sha(out); got != goldenScale {
		t.Errorf("scale sweep with rate-1.0 tracing diverged from the golden — the recorder is not a pure observer\n got %s\nwant %s", got, goldenScale)
	}
	if tap.finalized() == 0 {
		t.Fatal("no lifecycles recorded")
	}
}

func TestAutoscaleTracedBitIdentical(t *testing.T) {
	t.Parallel()
	// The full 5-minute-horizon sweep is the expensive test in this
	// package; prove the observer property on a shortened horizon by
	// running the identical config twice, untraced vs traced, and
	// requiring byte-equal sweeps.
	cfg := AutoscaleConfig{Family: "flash", Seed: 42, Duration: 90 * time.Second}
	plain := RunAutoscale(cfg).String()
	tap := &recorderTap{}
	cfg.FlightRecorder = tap.factory
	res := RunAutoscale(cfg)
	if traced := res.String(); plain != traced {
		t.Errorf("autoscale sweep changed under rate-1.0 tracing\nuntraced:\n%s\ntraced:\n%s", plain, traced)
	}
	if tap.finalized() == 0 {
		t.Fatal("no lifecycles recorded")
	}
	// Every refusal at a cell's admission window reaches its flight
	// recorder, as the daemon's do.
	var shed, recorded uint64
	for _, cell := range res.Cells {
		shed += cell.Shed
	}
	for _, r := range tap.recs {
		recorded += r.Aggregate().Stats.Shed
	}
	if shed == 0 || recorded != shed {
		t.Errorf("flight recorders counted %d sheds, cells shed %d (want equal and nonzero)", recorded, shed)
	}
}
