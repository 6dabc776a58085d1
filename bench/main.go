// Command bench is the repository's benchmark: four long-run workloads
// over the public API, every run three identical rounds on freshly built
// systems, eight end-to-end metrics per workload and — in a traced run —
// a ledger of per-layer figures taken from outside the program. See
// README.md in this directory for the metric definitions, the workloads
// and how to read a run; BENCHMARK.json at the repository root is the
// contract the names, units and bounds come from.
//
//	go run . -workload sim_coldtail -seed 1            # end-to-end metrics
//	go run . -workload live_stream -seed 1 -trace 1    # per-layer ledger
//	go run . -aa 5                                     # same-code A/A table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// rounds is how many identical rounds an end-to-end run pools. One
// round is a 5–8 s window, about the length of one host-speed regime on
// a shared box; three of them, each on a freshly built system, make a
// run's figures a blend of the regimes instead of a sample of one.
const rounds = 3

var workloads = []string{"sim_coldtail", "live_stream", "live_http", "live_journal"}

// runConfig is one invocation.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Traced   bool
	// Size scales warm-up counts and the simulator's shape; 1 is the
	// benchmark, the smoke test runs at 1/50.
	Size float64
	// Spans, if set, is where a traced run writes its spans.
	Spans string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []string
}

func main() {
	runtime.GOMAXPROCS(2) // server and load generator share one process, as cmd/clockwork-bench does
	var cfg runConfig
	var traced int
	var aa int
	flag.StringVar(&cfg.Workload, "workload", "", "one of "+strings.Join(workloads, ", "))
	flag.Uint64Var(&cfg.Seed, "seed", 1, "drives the generated schedule / model order and Config.Seed, nothing else")
	flag.Float64Var(&cfg.Seconds, "seconds", 24, "how long the run measures, pooled over its rounds")
	flag.IntVar(&traced, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced round")
	flag.StringVar(&cfg.Spans, "spans", "", "traced run: write the spans to this file at exit (one JSON object per line)")
	flag.IntVar(&aa, "aa", 0, "run the end-to-end set N times per side, interleaved A B B A …, and print the A/A table")
	flag.Parse()
	cfg.Traced, cfg.Size = traced != 0, 1

	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if aa > 0 {
		if err := runAA(man, aa, cfg.Seed, cfg.Seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if !slices.Contains(workloads, cfg.Workload) || cfg.Seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: -workload must be one of %s and -seconds positive\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	printEnv(cfg)
	rep, err := run(cfg, man)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printTable(os.Stderr, rep)
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "bench: FAILED CHECK:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// ---- the contract ----

// manifestMetric is one metric declared in BENCHMARK.json.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// manifest is the part of BENCHMARK.json the benchmark reads back: it
// reports exactly the metrics declared there, in the declared units.
type manifest struct {
	RunSeconds int              `json:"run_seconds"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

// loadManifest reads BENCHMARK.json from the checkout root: the working
// directory of a run, the parent directory of `go test`.
func loadManifest() (*manifest, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		buf, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var m manifest
		if err := json.Unmarshal(buf, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, fmt.Errorf("no BENCHMARK.json: %w", lastErr)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// finish keeps the metrics the manifest declares for this mode, in the
// declared units, and records a problem for any that is missing, not
// finite or badly named.
func (rep *report) finish(declared []manifestMetric, got map[string]float64) {
	rep.Metrics = make(map[string]metric, len(declared))
	for _, d := range declared {
		v, ok := got[d.Name]
		switch {
		case !metricName.MatchString(d.Name):
			rep.problems = append(rep.problems, fmt.Sprintf("metric name %q is not [A-Za-z0-9_.-]+", d.Name))
		case !ok:
			rep.problems = append(rep.problems, fmt.Sprintf("metric %s was not measured", d.Name))
		case math.IsNaN(v) || math.IsInf(v, 0):
			rep.problems = append(rep.problems, fmt.Sprintf("metric %s is not finite (%v)", d.Name, v))
		default:
			rep.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
	}
	rep.Correct = len(rep.problems) == 0
}

// ---- one run ----

// run executes one invocation: the rounds, the checks, the metrics.
func run(cfg runConfig, man *manifest) (*report, error) {
	// A traced run is one plain round — what a user sees, and the
	// baseline tracing is charged against — then one traced round; an
	// end-to-end run is `rounds` plain rounds.
	plan := make([]*tracer, rounds)
	if cfg.Traced {
		plan = []*tracer{nil, newTracer()}
	}
	var sim simSpec
	var live liveSpec
	isSim := cfg.Workload == "sim_coldtail"
	if isSim {
		sim = simSpecFor(cfg.Seconds, cfg.Size)
	} else {
		seconds := cfg.Seconds
		if cfg.Traced {
			// A traced run has two rounds, not three, and each is 5/8
			// as long: the rest of the time goes to the ladder and to
			// loading and replaying the journal.
			seconds *= 5.0 / 8
		}
		live = liveSpecFor(cfg.Workload, seconds, cfg.Size)
		if cfg.Traced {
			live.Rung = time.Duration(1.5 * float64(time.Second) * cfg.Size)
			if !live.HTTP {
				live.Batch32 = time.Duration(float64(time.Second) * cfg.Size)
			}
		}
	}

	rep := &report{}
	var results []*roundResult
	for i, tr := range plan {
		var r *roundResult
		var err error
		if isSim {
			r, err = simRound(cfg.Seed, sim, tr)
		} else {
			r, err = liveRound(cfg.Seed, live, tr)
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		results = append(results, r)
		mode := ""
		if tr != nil {
			mode = " (traced)"
		}
		fmt.Fprintf(os.Stderr, "bench: round %d%s: setup %.3fs  lo %d req  hi %d req: %.0f ok/s raw at host %.2f Mops = %.0f ok/s at reference speed\n",
			i, mode, r.Setup.Seconds(), r.Lo.Sent, r.Hi.Sent, r.Hi.goodput()*r.Hi.hostScale(), r.Hi.Host, r.Hi.goodput())
	}

	// Output checks: any of these fails the run.
	for i, r := range results {
		for _, p := range r.problems {
			rep.problems = append(rep.problems, fmt.Sprintf("round %d: %s", i, p))
		}
		if r.Dups != 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("round %d: %d duplicate request IDs", i, r.Dups))
		}
		if isSim && r.Hash != results[0].Hash {
			rep.problems = append(rep.problems, fmt.Sprintf("round %d: result hash %s differs from round 0's %s", i, r.Hash, results[0].Hash))
		}
		rep.Attempted += r.Warm + r.Lo.Sent + r.Hi.Sent
		rep.Failed += r.Dups
		for _, p := range []*phaseStats{&r.Lo, &r.Hi} {
			rep.Failed += p.Sent - p.Completed // errors, sheds and lost responses
		}
	}

	got := map[string]float64{}
	if !cfg.Traced {
		endToEnd(got, results)
		rep.finish(man.EndToEnd, got)
		return rep, nil
	}

	plain, traced := results[0], results[1]
	for k, v := range traced.layer {
		got[k] = v
	}
	track := plan[1].track(16)
	engineRung(got, cfg.Size, track)
	if !isSim {
		if err := floorRungs(got, cfg.Seed, cfg.Size, track); err != nil {
			return nil, err
		}
		if err := memRung(got, live, cfg.Seed, cfg.Size, track); err != nil {
			return nil, err
		}
		if err := codecRung(got, cfg.Size, track); err != nil {
			return nil, err
		}
		top := plain.layer["net.tcp_rt_us"]
		got["net.tcp_rt_us"] = top
		got["serve.transport_self_us"] = got["serve.mem_rt_us"] - got["clockwork.floor_us"]
		got["net.tcp_self_us"] = top - got["serve.mem_rt_us"]
		// The rungs sum to the top by construction, but they are three
		// separate one-caller timings, not an output of the program: an
		// out-of-order ladder is reported, not failed (see README.md —
		// on this runtime the floor, measured in an otherwise idle
		// process, reads a few µs above the stream rung).
		if !(got["clockwork.floor_us"] <= got["serve.mem_rt_us"] && got["serve.mem_rt_us"] <= top) {
			fmt.Fprintf(os.Stderr, "bench: note: ladder is not monotone: floor %.1f µs, mem_rt %.1f µs, tcp_rt %.1f µs\n",
				got["clockwork.floor_us"], got["serve.mem_rt_us"], top)
		}
	}
	perLayer(got, plain, traced, rep)
	if v, ok := got["journal.replay_match"]; ok && v != 1 {
		rep.problems = append(rep.problems, "journal: the recorded epoch did not replay to a hash MATCH")
	}
	if f := got["trace.finalized_per_req"]; f != 1 {
		rep.problems = append(rep.problems, fmt.Sprintf("flight recorder finalized %.6f traces per request, want exactly 1", f))
	}
	// A figure whose layer is not on this workload's path is reported as
	// 0: the contract wants every declared name from every workload.
	for _, d := range man.PerLayer {
		if _, ok := got[d.Name]; !ok && offPath(cfg.Workload, d.Name) {
			got[d.Name] = 0
		}
	}
	rep.finish(man.PerLayer, got)
	if cfg.Spans != "" {
		if err := plan[1].log.writeTo(cfg.Spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}

// endToEnd fills the eight end-to-end metrics. Every figure that has a
// wall clock or a CPU clock in it is the median of the rounds' figures,
// so one round that a host hiccup landed on does not move the run; the
// one pure count, slo_ok_share, is pooled over the rounds.
func endToEnd(got map[string]float64, results []*roundResult) {
	median := func(of func(r *roundResult) float64) float64 {
		v := make([]float64, len(results))
		for i, r := range results {
			v[i] = of(r)
		}
		_, med, _ := quartiles(v)
		return med
	}
	var ok, sent uint64
	for _, r := range results {
		ok += r.Lo.OK + r.Hi.OK
		sent += r.Lo.Sent + r.Hi.Sent
	}
	got["setup_s"] = median(func(r *roundResult) float64 { return r.Setup.Seconds() * hostScale(r.SetupHost) })
	got["goodput_rps"] = median(func(r *roundResult) float64 { return r.Hi.goodput() })
	got["cpu_us_per_req"] = median(func(r *roundResult) float64 { return r.Hi.cpuPerReq() })
	got["slo_ok_share"] = float64(ok) / float64(sent)
	got["lat_lo_p50_us"] = median(func(r *roundResult) float64 { return r.latency(&r.Lo, 50) })
	got["lat_lo_p90_us"] = median(func(r *roundResult) float64 { return r.latency(&r.Lo, 90) })
	got["lat_hi_p50_us"] = median(func(r *roundResult) float64 { return r.latency(&r.Hi, 50) })
	got["lat_hi_p90_us"] = median(func(r *roundResult) float64 { return r.latency(&r.Hi, 90) })
}

// offPath reports whether a per-layer metric's layer takes no part in
// the workload, so the figure is 0 by definition rather than missing.
func offPath(workload, name string) bool {
	sim := workload == "sim_coldtail"
	switch {
	case strings.HasPrefix(name, "journal."):
		return workload != "live_journal"
	case name == "serve.stream_batch32_rps":
		return workload != "live_stream" && workload != "live_journal"
	case strings.HasPrefix(name, "clockwork.run_ns_per_event"), name == "clockwork.submit_ns_per_req":
		return !sim
	case strings.HasPrefix(name, "serve."), strings.HasPrefix(name, "net."), strings.HasPrefix(name, "stream."),
		name == "simclock.inject_wake_us", name == "clockwork.floor_us", name == "clockwork.floor_allocs_per_req",
		name == "clockwork.sink_us_per_req", name == "clockwork.pacer_vratio":
		return sim
	}
	return false
}

// perLayer fills the per-layer figures that come from the generator and
// the runtime. What only instruments can see — engine steps, virtual
// time, wire counters, journal status — is read from the traced round;
// what a user sees — latencies, outcome shares, allocation — from the
// plain one, which tracing did not touch.
func perLayer(got map[string]float64, plain, traced *roundResult, rep *report) {
	per := func(n uint64, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	lo, hi := &plain.Lo, &plain.Hi
	tlo, thi := &traced.Lo, &traced.Hi

	got["simclock.events_per_req_lo"] = per(tlo.Steps, tlo.Sent)
	got["simclock.events_per_req_hi"] = per(thi.Steps, thi.Sent)

	got["core.cold_share_lo"] = per(lo.Cold, lo.Completed)
	got["core.cold_share_hi"] = per(hi.Cold, hi.Completed)
	got["core.mean_batch_lo"] = per(lo.BatchSum, lo.Executed)
	got["core.mean_batch_hi"] = per(hi.BatchSum, hi.Executed)
	got["core.cancelled_share_hi"] = per(hi.Cancelled, hi.Sent)
	got["core.rejected_share_hi"] = per(hi.Rejected, hi.Sent)
	got["core.slo_miss_share_hi"] = per(hi.SLOMiss, hi.Sent)
	sort.Float64s(hi.vlat)
	got["core.vlat_hi_p99_us"] = percentile(hi.vlat, 99)
	got["core.vlat_hi_p9999_us"] = percentile(hi.vlat, 99.99)

	got["serve.srv_reads_per_req_lo"] = per(tlo.wire.Reads, tlo.Sent)
	got["serve.srv_reads_per_req_hi"] = per(thi.wire.Reads, thi.Sent)
	got["serve.srv_writes_per_req_lo"] = per(tlo.wire.Writes, tlo.Sent)
	got["serve.srv_writes_per_req_hi"] = per(thi.wire.Writes, thi.Sent)
	got["serve.wire_b_in_per_req"] = per(thi.wire.BytesIn, thi.Sent)
	got["serve.wire_b_out_per_req"] = per(thi.wire.BytesOut, thi.Sent)
	got["serve.shed_share"] = per(lo.Shed+hi.Shed, lo.Sent+hi.Sent)
	got["serve.error_share"] = per(lo.Errors+hi.Errors, lo.Sent+hi.Sent)

	if thi.journalRecords > 0 {
		got["journal.b_per_req"] = per(thi.journalBytes, thi.Sent)
		got["journal.records_per_req"] = per(thi.journalRecords, thi.Sent)
	}

	got["trace.overhead_share"] = 1 - thi.goodput()/hi.goodput()

	got["go.allocs_per_req_hi"] = per(hi.use.Mallocs, hi.Completed)
	got["go.alloc_b_per_req_hi"] = per(hi.use.AllocBytes, hi.Completed)
	got["go.gc_cycles_per_mreq"] = per(uint64(hi.use.GCCycles)*1_000_000, hi.Completed)
	got["go.gc_pause_ms_total"] = hi.use.GCPause.Seconds() * 1e3
	got["go.heap_peak_mb"] = float64(hi.use.HeapSys) / (1 << 20)

	dups := plain.Dups + traced.Dups
	got["loadgen.sent"] = float64(rep.Attempted)
	got["loadgen.failed"] = float64(rep.Failed - dups)
	got["loadgen.duplicates"] = float64(dups)
	got["loadgen.n_lo"] = float64(lo.lat.n())
	got["loadgen.n_hi"] = float64(hi.lat.n())
	// The ungated tails are taken over the requests that met the SLO (the
	// share that did not is slo_ok_share's business): at hi the simulator
	// cancels about one request in 200, and a p99.9 over everything sent
	// would sit among those.
	got["loadgen.lat_lo_p99_us"] = percentile(lo.lat.sorted(), 99)
	got["loadgen.lat_hi_p99_us"] = percentile(hi.lat.sorted(), 99)
	got["loadgen.lat_hi_p999_us"] = percentile(hi.lat.sorted(), 99.9)
	// Two rounds: their spread over their median is the gap over the mean.
	a, b := plain.Hi.goodput(), traced.Hi.goodput()
	got["loadgen.round_spread"] = math.Abs(a-b) / ((a + b) / 2)
	hosts := append(append([]float64(nil), plain.hosts...), traced.hosts...)
	sort.Float64s(hosts)
	got["loadgen.calib_mops_min"] = hosts[0]
	got["loadgen.calib_mops_max"] = hosts[len(hosts)-1]
	got["loadgen.host_factor"] = hostScale(meanOf(hosts))
}

// ---- what a run prints besides its last line ----

// printEnv records the environment with the run, on standard error.
func printEnv(cfg runConfig) {
	env := map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"traced":     cfg.Traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     firstLine("/proc/sys/kernel/osrelease"),
		"cpu":        cpuModel(),
		"commit":     commit(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	line, _ := json.Marshal(env) // a map of strings and numbers cannot fail to encode
	fmt.Fprintln(os.Stderr, "bench: env", string(line))
}

func firstLine(path string) string {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the toolchain stamped into the binary, or
// "unknown" when it was built outside a repository.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printTable prints every reported metric by name with its unit.
func printTable(w *os.File, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", n, m.Value, m.Unit)
	}
}
