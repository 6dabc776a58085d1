package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Perfetto/Chrome trace-event export. The dump is the standard JSON
// object form — {"traceEvents": [...], "displayTimeUnit": "ms"} — that
// ui.perfetto.dev and chrome://tracing open directly:
//
//   - pid 1 holds the GPU executor tracks, one thread per (worker, GPU),
//     with INFER and LOAD complete ("X") spans.
//   - pid 1000+shard holds the request tracks of placement group
//     shard (the traces' "shard" key), one thread per
//     retained request, with the request's end-to-end span and its
//     nested stage spans (admit/queue/load/exec/deliver).
//   - SLO violations additionally emit an instant ("i") event named
//     after the attributed cause.
//
// Timestamps are virtual microseconds from the engine epoch; the
// otherData block carries the wall↔virtual correlation (wall origin,
// speed) so a reader can place the trace in wall time.

const gpuPid = 1

// requestPid maps a shard to its Perfetto process ID.
func requestPid(shard int) int { return 1000 + shard }

func gpuTid(worker, gpu int) int { return worker*256 + gpu }

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WritePerfetto renders the snapshot as Chrome trace-event JSON.
func WritePerfetto(w io.Writer, snap *Snapshot) error {
	events := make([]map[string]any, 0, 8*len(snap.Requests)+len(snap.Execs)+len(snap.Loads)+16)
	meta := func(pid, tid int, kind, name string) {
		args := map[string]any{"name": name}
		ev := map[string]any{"name": kind, "ph": "M", "pid": pid, "args": args}
		if kind == "thread_name" {
			ev["tid"] = tid
		}
		events = append(events, ev)
	}

	meta(gpuPid, 0, "process_name", "gpu executors")
	seenGPU := make(map[int]bool)
	seenShard := make(map[int]bool)
	gpuThread := func(shard, worker, gpu int) {
		tid := gpuTid(worker, gpu)
		if !seenGPU[tid] {
			seenGPU[tid] = true
			meta(gpuPid, tid, "thread_name", fmt.Sprintf("W%d GPU%d", worker, gpu))
		}
		if !seenShard[shard] {
			seenShard[shard] = true
			meta(requestPid(shard), 0, "process_name", fmt.Sprintf("shard %d requests", shard))
		}
	}

	for _, e := range snap.Execs {
		gpuThread(e.Shard, e.Worker, e.GPU)
		events = append(events, map[string]any{
			"name": fmt.Sprintf("INFER %s b%d", e.Model, e.Batch),
			"ph":   "X", "ts": usec(e.Start), "dur": usec(e.End - e.Start),
			"pid": gpuPid, "tid": gpuTid(e.Worker, e.GPU),
			"args": map[string]any{"kind": "exec", "action": e.ActionID, "model": e.Model,
				"batch": e.Batch, "shard": e.Shard, "requests": e.Requests},
		})
	}
	for _, l := range snap.Loads {
		gpuThread(l.Shard, l.Worker, l.GPU)
		events = append(events, map[string]any{
			"name": "LOAD " + l.Model,
			"ph":   "X", "ts": usec(l.Start), "dur": usec(l.End - l.Start),
			"pid": gpuPid, "tid": gpuTid(l.Worker, l.GPU),
			"args": map[string]any{"kind": "load", "model": l.Model, "shard": l.Shard, "ok": l.OK},
		})
	}

	for i := range snap.Requests {
		appendRequestEvents(&events, &snap.Requests[i], seenShard, meta)
	}

	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"clockwork":         "flight-recorder",
			"virtual_now_us":    usec(snap.VirtualNow),
			"wall_origin":       snap.WallOrigin,
			"virtual_origin_us": usec(snap.VirtualOrigin),
			"speed":             snap.Speed,
			"sample_rate":       snap.SampleRate,
			"stats":             snap.Stats,
			"provenance":        snap.Provenance,
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// appendRequestEvents emits one request's track: the end-to-end parent
// span, nested stage spans, and a violation instant when attributed.
func appendRequestEvents(events *[]map[string]any, t *RequestTrace, seenShard map[int]bool, meta func(pid, tid int, kind, name string)) {
	pid, tid := requestPid(t.Shard), int(t.ID)
	if !seenShard[t.Shard] {
		seenShard[t.Shard] = true
		meta(pid, 0, "process_name", fmt.Sprintf("shard %d requests", t.Shard))
	}
	start := t.ClientSend
	if start == 0 {
		start = t.AdmittedAt
	}
	end := t.DoneAt
	if end < start {
		end = start
	}
	name := fmt.Sprintf("req %d %s", t.ID, t.Model)
	args := map[string]any{
		"kind": "request", "id": t.ID, "model": t.Model, "tenant": t.Tenant,
		"shard": t.Shard, "slo_ms": ms(t.SLO), "latency_ms": ms(t.Latency),
		"success": t.Success, "reason": t.ReasonStr,
		"violation": t.Violation, "cause": t.Cause.String(),
		"cold_start": t.ColdStart, "sampled": t.Sampled, "queue_depth": t.QueueDepth,
		"worker": t.Worker, "gpu": t.GPU, "batch": t.Batch, "action": t.ActionID,
		"pred_exec_ms": ms(t.PredExec), "actual_exec_ms": ms(t.ExecEnd - t.ExecStart),
	}
	if t.Synthesized {
		args["synthesized"] = true
	}
	*events = append(*events, map[string]any{
		"name": name, "ph": "X", "ts": usec(start), "dur": usec(end - start),
		"pid": pid, "tid": tid, "args": args,
	})
	stage := func(st Stage, from, to time.Duration) {
		if to <= from || from == 0 {
			return
		}
		*events = append(*events, map[string]any{
			"name": st.String(), "ph": "X", "ts": usec(from), "dur": usec(to - from),
			"pid": pid, "tid": tid, "args": map[string]any{"kind": "stage", "stage": st.String(), "id": t.ID},
		})
	}
	if t.ClientSend > 0 {
		stage(StageAdmit, t.ClientSend, t.AdmittedAt)
	}
	switch {
	case t.ExecStart > 0:
		stage(StageQueue, t.AdmittedAt, t.ExecStart)
	case t.RespondedAt > 0:
		stage(StageQueue, t.AdmittedAt, t.RespondedAt)
	}
	stage(StageLoad, t.LoadStart, t.LoadEnd)
	stage(StageExec, t.ExecStart, t.ExecEnd)
	switch {
	case t.ExecEnd > 0:
		stage(StageDeliver, t.ExecEnd, t.DoneAt)
	case t.RespondedAt > 0:
		stage(StageDeliver, t.RespondedAt, t.DoneAt)
	}
	if t.Violation {
		*events = append(*events, map[string]any{
			"name": "violation:" + t.Cause.String(), "ph": "i", "ts": usec(end),
			"pid": pid, "tid": tid, "s": "t",
			"args": map[string]any{"kind": "violation", "id": t.ID, "cause": t.Cause.String()},
		})
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
