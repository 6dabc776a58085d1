package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"clockwork"
	"clockwork/trace"
)

// latencyQuantiles are the summary quantiles /metrics exposes.
var latencyQuantiles = []struct {
	label string
	p     float64
}{{"0.5", 50}, {"0.9", 90}, {"0.99", 99}, {"0.999", 99.9}, {"0.9999", 99.99}}

// handleMetrics renders GET /metrics in the Prometheus text exposition
// format (version 0.0.4), hand-rolled so the repo stays dependency-free.
// The whole scrape is snapshotted in one engine call, so every line
// reflects the same virtual instant.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var (
		st     StatsResponse
		shards []clockwork.ShardStats
		quants = make([]float64, len(latencyQuantiles))
		agg    trace.Aggregate
	)
	doErr := s.live.Do(func() {
		s.recNoop()
		s.fillStats(&st)
		for i := 0; i < s.sys.ShardCount(); i++ {
			if sb, err := s.sys.ShardStats(i); err == nil {
				shards = append(shards, sb)
			}
		}
		for i, q := range latencyQuantiles {
			quants[i] = s.sys.LatencyPercentile(q.p).Seconds()
		}
		// The flight recorder's merged aggregates ride the same engine
		// entry, so the stage decomposition, provenance table and outcome
		// counters all reflect one virtual instant.
		agg = s.flight.Aggregate()
	})
	if doErr != nil {
		writeAPIError(w, doErr)
		return
	}

	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("clockwork_requests_total", "Client requests with a final outcome.", st.Requests)
	counter("clockwork_succeeded_total", "Requests that executed and returned.", st.Succeeded)
	counter("clockwork_failed_total", "Requests with a failure outcome.", st.Failed)
	counter("clockwork_slo_misses_total", "Successful responses that exceeded their SLO.", st.SLOMisses)
	counter("clockwork_cancelled_total", "Requests rejected in advance by admission control.", st.Cancelled)
	counter("clockwork_rejected_total", "Worker-side schedule misses.", st.Rejected)
	counter("clockwork_cold_starts_total", "Requests whose model was not GPU-resident on arrival.", st.ColdStarts)
	gauge("clockwork_goodput_mean", "Within-SLO responses per virtual second over the run.", st.GoodputMean)
	gauge("clockwork_workers", "Workers ever added (drained and failed keep their IDs).", float64(st.Workers))
	gauge("clockwork_shards", "Scheduler shards.", float64(st.Shards))
	gauge("clockwork_models", "Registered model instances.", float64(st.Models))
	gauge("clockwork_virtual_time_seconds", "Engine virtual clock.", st.VirtualNow.Seconds())
	gauge("clockwork_uptime_seconds", "Daemon wall-clock age.", time.Since(s.started).Seconds())
	gauge("clockwork_speed", "Virtual-vs-wall clock multiplier.", s.live.Speed())

	if s.rec != nil {
		// Journal gauges come from the recorder's lock-free status
		// mirrors — same scrape, no extra engine call.
		js := s.rec.Status()
		counter("clockwork_journal_records_total", "Journal records appended this epoch.", js.Records)
		counter("clockwork_journal_infers_total", "Inference submissions journaled this epoch.", js.Infers)
		counter("clockwork_journal_acks_total", "Acknowledgements journaled this epoch.", js.Acks)
		counter("clockwork_journal_snapshots_total", "Snapshots taken this epoch.", js.Snapshots)
		gauge("clockwork_journal_epoch", "Journal epoch this daemon appends to.", float64(js.Epoch))
		gauge("clockwork_journal_segments", "Live write-ahead segments on disk.", float64(js.Segments))
		gauge("clockwork_journal_bytes", "Bytes appended to the journal this epoch.", float64(js.Bytes))
		gauge("clockwork_journal_unsynced_bytes", "Bytes written but not yet fsynced.", float64(js.UnsyncedBytes))
		gauge("clockwork_journal_fsync_lag_seconds", "Time since the last completed fsync while writes are pending.", js.FsyncLag.Seconds())
		snapAge := js.LastSnapshotAge.Seconds()
		if js.LastSnapshotAge < 0 {
			snapAge = -1
		}
		gauge("clockwork_journal_last_snapshot_age_seconds", "Wall-clock age of the last snapshot (-1 before the first).", snapAge)
		failed := 0.0
		if js.Failed {
			failed = 1
		}
		gauge("clockwork_journal_failed", "1 when the journal has latched a write error and stopped recording.", failed)
	}

	counter("clockwork_admission_shed_total", "Requests refused at the admission window (429 / overloaded frames).", s.shedTotal.Load())
	if s.asc != nil {
		// Autoscaler gauges come from the server's lock-free mirrors —
		// same scrape, no extra engine call.
		enabled := 0.0
		if s.ascEnabled.Load() {
			enabled = 1
		}
		gauge("clockwork_autoscaler_enabled", "1 while the closed-loop autoscaler is evaluating.", enabled)
		gauge("clockwork_autoscaler_window", "Admission window currently in force.", float64(s.ascWindow.Load()))
		counter("clockwork_autoscaler_ticks_total", "Control periods evaluated.", s.ascTicks.Load())
		counter("clockwork_autoscaler_decisions_total", "Control periods whose decision moved anything.", s.ascMoves.Load())
		counter("clockwork_autoscaler_workers_added_total", "Workers added by the closed loop.", s.ascAdded.Load())
		counter("clockwork_autoscaler_workers_drained_total", "Workers drained by the closed loop.", s.ascDrained.Load())
	}

	fmt.Fprintf(&b, "# HELP clockwork_latency_seconds Client-observed latency (virtual clock).\n")
	fmt.Fprintf(&b, "# TYPE clockwork_latency_seconds summary\n")
	for i, q := range latencyQuantiles {
		fmt.Fprintf(&b, "clockwork_latency_seconds{quantile=%q} %g\n", q.label, quants[i])
	}
	fmt.Fprintf(&b, "clockwork_latency_seconds_count %d\n", st.Requests)

	fmt.Fprintf(&b, "# HELP clockwork_shard_requests_total Requests attributed to each shard.\n")
	fmt.Fprintf(&b, "# TYPE clockwork_shard_requests_total counter\n")
	for i, sb := range shards {
		fmt.Fprintf(&b, "clockwork_shard_requests_total{shard=\"%d\"} %d\n", i, sb.Requests)
	}
	fmt.Fprintf(&b, "# HELP clockwork_shard_within_slo_total Within-SLO successes per shard.\n")
	fmt.Fprintf(&b, "# TYPE clockwork_shard_within_slo_total counter\n")
	for i, sb := range shards {
		fmt.Fprintf(&b, "clockwork_shard_within_slo_total{shard=\"%d\"} %d\n", i, sb.WithinSLO)
	}

	s.writeTraceMetrics(&b, agg)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// writeTraceMetrics renders the flight recorder's aggregate layer: the
// per-stage latency decomposition and prediction-error summaries, the
// SLO-miss provenance table, and the recorder's own volume counters.
// agg was captured inside the same engine entry as the rest of the
// scrape. The aggregates are fed by every finalized request — not just
// the sampled ones — so these series are exact, independent of the
// trace sample rate.
func (s *Server) writeTraceMetrics(b *strings.Builder, agg trace.Aggregate) {
	enabled := 0.0
	if s.flight.Enabled() {
		enabled = 1
	}
	fmt.Fprintf(b, "# HELP clockwork_trace_enabled 1 while the flight recorder is recording.\n# TYPE clockwork_trace_enabled gauge\nclockwork_trace_enabled %g\n", enabled)
	fmt.Fprintf(b, "# HELP clockwork_trace_sample_rate Head-based trace sampling probability.\n# TYPE clockwork_trace_sample_rate gauge\nclockwork_trace_sample_rate %g\n", s.flight.SampleRate())
	fmt.Fprintf(b, "# HELP clockwork_trace_finalized_total Requests whose lifecycle the recorder finalized.\n# TYPE clockwork_trace_finalized_total counter\nclockwork_trace_finalized_total %d\n", agg.Stats.Finalized)
	fmt.Fprintf(b, "# HELP clockwork_trace_sampled_total Finalized requests retained in the completed-trace rings.\n# TYPE clockwork_trace_sampled_total counter\nclockwork_trace_sampled_total %d\n", agg.Stats.SampledKept)
	fmt.Fprintf(b, "# HELP clockwork_trace_violations_total SLO violations the recorder attributed a cause to.\n# TYPE clockwork_trace_violations_total counter\nclockwork_trace_violations_total %d\n", agg.Stats.Violations)

	fmt.Fprintf(b, "# HELP clockwork_stage_seconds Per-request latency decomposition by lifecycle stage (virtual clock).\n")
	fmt.Fprintf(b, "# TYPE clockwork_stage_seconds summary\n")
	for _, st := range trace.Stages {
		h := agg.Stage[st]
		if h == nil {
			continue
		}
		for _, q := range latencyQuantiles {
			fmt.Fprintf(b, "clockwork_stage_seconds{stage=%q,quantile=%q} %g\n", st, q.label, h.Percentile(q.p).Seconds())
		}
		fmt.Fprintf(b, "clockwork_stage_seconds_sum{stage=%q} %g\n", st, h.Sum())
		fmt.Fprintf(b, "clockwork_stage_seconds_count{stage=%q} %d\n", st, h.Count())
	}

	fmt.Fprintf(b, "# HELP clockwork_predict_error_seconds Absolute predicted-vs-actual execution time error.\n")
	fmt.Fprintf(b, "# TYPE clockwork_predict_error_seconds summary\n")
	if h := agg.PredErr; h != nil {
		for _, q := range latencyQuantiles {
			fmt.Fprintf(b, "clockwork_predict_error_seconds{quantile=%q} %g\n", q.label, h.Percentile(q.p).Seconds())
		}
		fmt.Fprintf(b, "clockwork_predict_error_seconds_sum %g\n", h.Sum())
		fmt.Fprintf(b, "clockwork_predict_error_seconds_count %d\n", h.Count())
	}

	fmt.Fprintf(b, "# HELP clockwork_slo_miss_provenance_total SLO violations, cancels and sheds attributed to a cause, per model and tenant.\n")
	fmt.Fprintf(b, "# TYPE clockwork_slo_miss_provenance_total counter\n")
	for _, p := range agg.Provenance {
		fmt.Fprintf(b, "clockwork_slo_miss_provenance_total{cause=%q,model=%q,tenant=%q} %d\n", p.Cause, p.Model, p.Tenant, p.Count)
	}
	if shed := agg.Stats.Shed; shed > 0 {
		// Admission sheds never reach the engine, so they carry no model
		// or tenant; they are still lost work the provenance table must
		// not hide.
		fmt.Fprintf(b, "clockwork_slo_miss_provenance_total{cause=%q,model=\"-\",tenant=\"-\"} %d\n", trace.CauseAdmissionShed, shed)
	}
}
