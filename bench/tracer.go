package main

import (
	"sort"
	"time"

	"clockwork/trace"
)

// traceRing is the flight recorder's per-shard retention in a traced
// round: enough for every request of the simulator's hi phase, and for
// the last 65,536 of a live one.
const traceRing = 1 << 16

// tracer is what a traced round carries and an untraced round does not:
// the span log and the server-side wire counters. A nil tracer is an
// untraced round; its track method returns a nil (no-op) track.
type tracer struct {
	log    *spanLog
	counts *wireCounts
}

func newTracer() *tracer { return &tracer{log: newSpanLog(), counts: &wireCounts{}} }

func (t *tracer) track(capacity int) *spanTrack {
	if t == nil {
		return nil
	}
	return t.log.track(capacity)
}

// flightLayer reads the flight recorder — attached through the public
// hook at sample rate 1.0, a proven pure observer — after the engine has
// stopped, and files the virtual-time stage figures under the layer that
// owns each stage. Stage percentiles are taken over the retained traces
// admitted at or after hiStart (virtual), i.e. the hi phase; requests is
// everything the round sent, which the recorder must have finalized
// exactly once each.
func flightLayer(layer map[string]float64, flight *trace.Recorder, hiStart time.Duration, requests uint64) {
	snap := flight.Snapshot()
	stage := make(map[trace.Stage][]float64)
	for i := range snap.Requests {
		t := &snap.Requests[i]
		if t.AdmittedAt < hiStart {
			continue
		}
		for _, st := range trace.Stages {
			if d, ok := t.StageDur(st); ok {
				stage[st] = append(stage[st], float64(d)/1e3)
			}
		}
	}
	pct := func(st trace.Stage, p float64) float64 {
		v := stage[st]
		if len(v) == 0 {
			return 0 // stage never happened in the window (no cold load)
		}
		sort.Float64s(v)
		return percentile(v, p)
	}
	layer["core.queue_vus_p50_hi"] = pct(trace.StageQueue, 50)
	layer["core.queue_vus_p99_hi"] = pct(trace.StageQueue, 99)
	layer["worker.load_vus_p50_hi"] = pct(trace.StageLoad, 50)
	layer["worker.exec_vus_p50_hi"] = pct(trace.StageExec, 50)
	layer["network.admit_vus_p50"] = pct(trace.StageAdmit, 50)
	layer["network.deliver_vus_p50"] = pct(trace.StageDeliver, 50)
	agg := flight.Aggregate()
	layer["predictor.err_vus_p99"] = float64(agg.PredErr.Percentile(99)) / 1e3
	layer["trace.finalized_per_req"] = float64(agg.Stats.Finalized) / float64(requests)
}
