package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func msd(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// record runs one request's full lifecycle through s.
func record(s *Recorder, id uint64, o Outcome, cold bool) {
	s.Admitted(id, o.Model, o.Tenant, 0, o.SLO, 0, cold, 1, msd(10))
	s.Arrived(id, msd(9))
	if o.Success {
		s.Scheduled([]uint64{id}, id+1000, 0, 0, o.Batch, msd(12), msd(3), msd(11))
		s.ExecDone([]uint64{id}, id+1000, o.Model, 0, 0, 0, o.Batch, msd(12), msd(15))
	}
	done := msd(9) + o.Latency
	s.Responded(id, done-time.Millisecond)
	s.Completed(0, o, done)
}

func TestSamplingDeterministic(t *testing.T) {
	r := New(Options{SampleRate: 0.25, Enabled: true})
	first := make(map[uint64]bool)
	n := 0
	for id := uint64(1); id <= 4000; id++ {
		first[id] = r.sampled(id)
		if first[id] {
			n++
		}
	}
	// A pure function of the ID: identical on re-evaluation.
	for id := uint64(1); id <= 4000; id++ {
		if r.sampled(id) != first[id] {
			t.Fatalf("sampling decision for %d changed between calls", id)
		}
	}
	// Rate plausibility: 25% ± a generous band.
	if n < 700 || n > 1300 {
		t.Fatalf("sampled %d of 4000 at rate 0.25", n)
	}
	r.SetSampleRate(1)
	for id := uint64(1); id <= 100; id++ {
		if !r.sampled(id) {
			t.Fatalf("rate 1.0 must sample every ID (missed %d)", id)
		}
	}
	r.SetSampleRate(0)
	for id := uint64(1); id <= 100; id++ {
		if r.sampled(id) {
			t.Fatalf("rate 0 must sample nothing (sampled %d)", id)
		}
	}
}

func TestLifecycleStagesAndCause(t *testing.T) {
	r := New(Options{SampleRate: 1, Enabled: true})
	s := r
	record(s, 7, Outcome{ID: 7, Model: "m", Tenant: "a", Success: true, Batch: 2, SLO: msd(100), Latency: msd(9)}, false)

	snap := r.Snapshot()
	if len(snap.Requests) != 1 {
		t.Fatalf("want 1 retained trace, got %d", len(snap.Requests))
	}
	tr := snap.Requests[0]
	if tr.Violation || tr.Cause != CauseNone {
		t.Fatalf("in-SLO success must not be a violation: %+v", tr)
	}
	checks := []struct {
		st   Stage
		want time.Duration
	}{
		{StageAdmit, msd(1)},   // 9→10
		{StageQueue, msd(2)},   // 10→12
		{StageExec, msd(3)},    // 12→15
		{StageDeliver, msd(3)}, // 15→18 (done = 9+9)
	}
	for _, c := range checks {
		got, ok := (&tr).StageDur(c.st)
		if !ok || got != c.want {
			t.Fatalf("stage %v = %v (ok=%v), want %v", c.st, got, ok, c.want)
		}
	}
	if _, ok := (&tr).StageDur(StageLoad); ok {
		t.Fatalf("warm request must have no load stage")
	}
	if s.Building() != 0 {
		t.Fatalf("building map must drain, has %d", s.Building())
	}
}

func TestViolationRetainedAtRateZero(t *testing.T) {
	r := New(Options{SampleRate: 0, Enabled: true})
	s := r
	// A success inside SLO at rate 0: dropped entirely.
	record(s, 1, Outcome{ID: 1, Model: "m", Success: true, Batch: 1, SLO: msd(100), Latency: msd(9)}, false)
	// A cancel: retained in the violation ring regardless of rate.
	record(s, 2, Outcome{ID: 2, Model: "m", Success: false, Reason: ReasonCancelled, ReasonStr: "cancelled", SLO: msd(100), Latency: msd(100)}, false)
	snap := r.Snapshot()
	if len(snap.Requests) != 1 || snap.Requests[0].ID != 2 {
		t.Fatalf("want exactly the violating trace retained, got %+v", snap.Requests)
	}
	if !snap.Requests[0].Violation {
		t.Fatalf("cancel must be a violation")
	}
	if snap.Stats.Finalized != 2 || snap.Stats.Violations != 1 {
		t.Fatalf("stats: %+v", snap.Stats)
	}
}

func TestCauseAttribution(t *testing.T) {
	cases := []struct {
		name string
		tr   RequestTrace
		want Cause
	}{
		{"worker loss", RequestTrace{Violation: true, Reason: ReasonWorkerFailed}, CauseWorkerLoss},
		{"reject is mispredict", RequestTrace{Violation: true, Reason: ReasonRejected}, CauseMispredict},
		{"timeout is mispredict", RequestTrace{Violation: true, Reason: ReasonTimeout}, CauseMispredict},
		{"warm cancel is queueing", RequestTrace{Violation: true, Reason: ReasonCancelled}, CauseQueueing},
		{"cold cancel is cold start", RequestTrace{Violation: true, Reason: ReasonCancelled, ColdStart: true}, CauseColdStart},
		{"cold slow success", RequestTrace{Violation: true, Success: true, ColdStart: true}, CauseColdStart},
		{"overrun success is mispredict", RequestTrace{Violation: true, Success: true,
			PredExec: msd(2), ExecStart: msd(10), ExecEnd: msd(20)}, CauseMispredict},
		{"slow-but-predicted success is queueing", RequestTrace{Violation: true, Success: true,
			PredExec: msd(10), ExecStart: msd(10), ExecEnd: msd(21)}, CauseQueueing},
		{"in-SLO success", RequestTrace{Success: true}, CauseNone},
	}
	for _, c := range cases {
		if got := c.tr.attributeCause(); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestColdStartLoadAttribution(t *testing.T) {
	r := New(Options{SampleRate: 1, Enabled: true})
	s := r
	s.Admitted(5, "m", "", 0, msd(100), 0, true, 1, msd(10))
	s.Arrived(5, msd(9))
	s.LoadDone("m", 0, 0, 0, msd(11), msd(19), true)
	s.Scheduled([]uint64{5}, 1005, 0, 0, 1, msd(20), msd(3), msd(12))
	s.ExecDone([]uint64{5}, 1005, "m", 0, 0, 0, 1, msd(20), msd(23))
	s.Responded(5, msd(24))
	s.Completed(0, Outcome{ID: 5, Model: "m", Success: true, Batch: 1, ColdStart: true, SLO: msd(100), Latency: msd(16)}, msd(25))
	snap := r.Snapshot()
	tr := snap.Requests[0]
	if tr.LoadStart != msd(11) || tr.LoadEnd != msd(19) {
		t.Fatalf("load span not attributed: %+v", tr)
	}
	if d, ok := (&tr).StageDur(StageLoad); !ok || d != msd(8) {
		t.Fatalf("load stage = %v ok=%v, want 8ms", d, ok)
	}
}

func TestSynthesizedTrace(t *testing.T) {
	r := New(Options{SampleRate: 1, Enabled: true})
	s := r
	// Completion with no admission (e.g. unregistered model).
	s.Completed(0, Outcome{ID: 9, Model: "ghost", Success: false, Reason: ReasonUnregistered,
		ReasonStr: "unregistered", SLO: msd(50), Latency: msd(1)}, msd(2))
	snap := r.Snapshot()
	if len(snap.Requests) != 1 || !snap.Requests[0].Synthesized {
		t.Fatalf("want one synthesized trace, got %+v", snap.Requests)
	}
	if snap.Stats.Synthesized != 1 {
		t.Fatalf("stats: %+v", snap.Stats)
	}
}

func TestRingWrap(t *testing.T) {
	rg := newRing[int](3)
	for i := 1; i <= 5; i++ {
		rg.push(i)
	}
	got := rg.items()
	want := []int{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("ring items %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ring items %v, want %v", got, want)
		}
	}
	empty := newRing[int](0)
	empty.push(1)
	if len(empty.items()) != 0 {
		t.Fatalf("zero-cap ring must drop")
	}
}

func TestDisabledRecorderIsInert(t *testing.T) {
	r := New(Options{SampleRate: 1})
	s := r
	record(s, 1, Outcome{ID: 1, Model: "m", Success: true, Batch: 1, SLO: msd(10), Latency: msd(1)}, false)
	if snap := r.Snapshot(); len(snap.Requests) != 0 || snap.Stats.Finalized != 0 {
		t.Fatalf("disabled recorder recorded: %+v", snap)
	}
	// A nil recorder (none attached) must be callable.
	var nilRec *Recorder
	nilRec.Admitted(1, "m", "", 0, msd(10), 0, false, 1, 0)
	nilRec.Completed(0, Outcome{ID: 1}, 0)
	nilRec.RecordShed()
}

func TestPerfettoExport(t *testing.T) {
	r := New(Options{SampleRate: 1, Enabled: true})
	s := r
	record(s, 1, Outcome{ID: 1, Model: "m", Tenant: "t", Success: true, Batch: 2, SLO: msd(100), Latency: msd(9)}, false)
	record(s, 2, Outcome{ID: 2, Model: "m", Success: false, Reason: ReasonTimeout, ReasonStr: "timeout", SLO: msd(5), Latency: msd(5)}, false)
	snap := r.Snapshot()
	snap.VirtualNow = msd(100)
	snap.Speed = 1

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, snap); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var reqSpans, stageSpans, violations, execSpans int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && e.Args["kind"] == "request":
			reqSpans++
		case e.Ph == "X" && e.Args["kind"] == "stage":
			stageSpans++
		case e.Ph == "X" && e.Args["kind"] == "exec":
			execSpans++
		case e.Ph == "i" && e.Args["kind"] == "violation":
			violations++
		}
	}
	if reqSpans != 2 || execSpans != 1 || violations != 1 || stageSpans == 0 {
		t.Fatalf("spans: req=%d stage=%d exec=%d violation=%d", reqSpans, stageSpans, execSpans, violations)
	}
	// Nesting: every stage span lies within its request's parent span.
	type span struct{ ts, end float64 }
	parents := make(map[int]span)
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Args["kind"] == "request" {
			parents[e.Tid] = span{e.Ts, e.Ts + e.Dur}
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Args["kind"] == "stage" {
			p, ok := parents[e.Tid]
			if !ok || e.Ts < p.ts-1e-9 || e.Ts+e.Dur > p.end+1e-9 {
				t.Fatalf("stage %q [%v,%v] not nested in parent %v", e.Name, e.Ts, e.Ts+e.Dur, p)
			}
		}
	}
}

func TestAggregateProvenanceAndPredErr(t *testing.T) {
	r := New(Options{SampleRate: 1, Enabled: true})
	record(r, 1, Outcome{ID: 1, Model: "a", Tenant: "t1", Success: false, Reason: ReasonCancelled, ReasonStr: "cancelled", SLO: msd(10), Latency: msd(10)}, false)
	record(r, 2, Outcome{ID: 2, Model: "b", Tenant: "t2", Success: false, Reason: ReasonWorkerFailed, ReasonStr: "worker-failed", SLO: msd(10), Latency: msd(4)}, false)
	record(r, 3, Outcome{ID: 3, Model: "a", Tenant: "t1", Success: true, Batch: 1, SLO: msd(100), Latency: msd(9)}, false)
	agg := r.Aggregate()
	if agg.Stats.Finalized != 3 || agg.Stats.Violations != 2 {
		t.Fatalf("stats: %+v", agg.Stats)
	}
	want := map[string]uint64{"queueing/a/t1": 1, "worker_loss/b/t2": 1}
	for _, p := range agg.Provenance {
		k := p.Cause + "/" + p.Model + "/" + p.Tenant
		if want[k] != p.Count {
			t.Fatalf("provenance %v unexpected (table %+v)", p, agg.Provenance)
		}
		delete(want, k)
	}
	if len(want) != 0 {
		t.Fatalf("provenance missing %v", want)
	}
	// Successful traced request recorded |actual−predicted| = 0ms.
	if agg.PredErr.Count() != 1 {
		t.Fatalf("pred-error count = %d", agg.PredErr.Count())
	}
	if agg.Stage[StageExec].Count() != 1 || agg.Stage[StageQueue].Count() != 3 {
		t.Fatalf("stage counts: exec=%d queue=%d", agg.Stage[StageExec].Count(), agg.Stage[StageQueue].Count())
	}
}
