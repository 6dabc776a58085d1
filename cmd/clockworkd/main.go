// Command clockworkd is the live serving daemon: it wires a clockwork
// System to the wall clock and serves the HTTP/JSON API from package
// serve — inference on POST /v1/infer, model registration, the
// worker admin plane, and Prometheus metrics on GET /metrics —
// plus, with -stream-addr, the binary stream transport (length-prefixed
// frames over TCP with connection multiplexing and batched submission),
// the fast path that cuts per-request overhead several-fold.
// SIGINT/SIGTERM triggers a graceful drain: in-flight requests run to
// their outcome before the daemon exits.
//
// Examples:
//
//	clockworkd -addr :8400 -workers 2 -gpus 2 -preload resnet50_v1b:4
//	clockworkd -addr 127.0.0.1:8400 -stream-addr 127.0.0.1:8401 \
//	    -workers 8 -shards 4 -speed 100 -preload resnet50_v1b:8,densenet161:4
//	clockworkd -addr :8400 -stream-addr :8401 -max-inflight 1024
//	clockworkd -addr :8400 -journal /var/lib/clockwork/journal \
//	    -snapshot-interval 30s -preload resnet50_v1b:4
//
// -shards N splits the GPUs into N placement groups: a worker's GPUs
// join group (worker ID mod N), and each model is loaded only onto GPUs
// of group (a hash of its name mod N). One controller schedules them
// all; the groups only confine LOAD placement, which keeps each group's
// page caches on a stable slice of the models. While every worker of a
// group is drained or failed, its models load onto any GPU.
//
// The -speed flag scales virtual time against wall time: 1 serves in
// real time on the paper's simulated hardware; 100 runs the simulated
// cluster a hundredfold faster, for load tests that don't want to wait.
// -max-inflight bounds the admission window shared by both transports:
// beyond it HTTP answers 429 (Retry-After) and the stream answers typed
// overloaded error frames.
//
// -autoscale closes the control loop: a periodic engine-side policy
// re-derives the admission window from observed SLO headroom (shrink
// on violations, grow on sustained p99 headroom, with hysteresis) and
// — when -autoscale-max-workers raises the ceiling — adds or drains
// workers against sustained demand. Status and manual overrides live
// at GET/POST /v1/admin/autoscaler. The loop composes with -journal:
// decisions are recorded and replayed.
//
// -trace attaches the flight recorder from boot: every sampled
// request's lifecycle (admission → scheduling decision → load → exec →
// response) is retained in ring buffers and exported as
// Perfetto-loadable JSON at GET /v1/admin/trace; SLO violations are
// always retained regardless of -trace-sample. Tracing is a pure
// observer (outcomes are bit-identical at any rate) and can also be
// toggled at runtime via POST /v1/admin/trace — the recorder is
// attached even without -trace, just disabled. The latency
// decomposition and SLO-miss provenance series on /metrics are exact
// regardless of the sample rate.
//
// -pprof starts a net/http/pprof side listener (serving only the
// profiling endpoints, never the inference API) for CPU/heap profiles
// of the live daemon.
//
// -journal enables the durable control plane (package journal): every
// externally-sourced injection is appended to a write-ahead log and the
// control-plane state is snapshotted on -snapshot-interval (plus on
// POST /v1/admin/snapshot). On restart with the same -journal dir the
// daemon recovers: latest snapshot, plus the recorded mutations after
// it — no registered model and no acknowledged request is lost. The
// recovered run opens a new journal epoch; cmd/clockwork-replay can
// re-execute any recorded epoch deterministically. The geometry
// flags (-workers, -shards, …) and -preload are ignored on recovery —
// the journal's state wins.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof side listener
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clockwork"
	"clockwork/journal"
	"clockwork/serve"
	"clockwork/trace"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8400", "HTTP listen address")
		streamAddr   = flag.String("stream-addr", "", "binary stream-transport listen address (empty = disabled)")
		maxInFlight  = flag.Int("max-inflight", 0, "admission window: max unanswered requests across transports (0 = unbounded)")
		workers      = flag.Int("workers", 1, "worker machines")
		gpus         = flag.Int("gpus", 1, "GPUs per worker")
		shards       = flag.Int("shards", 1, "placement groups: each model loads only onto the GPUs of its group")
		policy       = flag.String("policy", string(clockwork.PolicyClockwork), "serving policy (see -list-policies)")
		listPolicies = flag.Bool("list-policies", false, "print registered policies and exit")
		speed        = flag.Float64("speed", 1.0, "virtual-vs-wall clock multiplier")
		seed         = flag.Uint64("seed", 42, "engine RNG seed")
		preload      = flag.String("preload", "", "models to register at startup: zoo[:copies] comma-separated (e.g. resnet50_v1b:4)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")

		autoscaleOn   = flag.Bool("autoscale", false, "close the control loop: adapt the admission window to SLO headroom and scale workers against demand")
		ascPeriod     = flag.Duration("autoscale-period", time.Second, "autoscaler control period (virtual time)")
		ascMinWindow  = flag.Int("autoscale-min-window", 0, "admission-window floor (0 = default 8)")
		ascMaxWindow  = flag.Int("autoscale-max-window", 0, "admission-window ceiling (0 = default 4096)")
		ascMinWorkers = flag.Int("autoscale-min-workers", 0, "active-worker floor (0 = default 1)")
		ascMaxWorkers = flag.Int("autoscale-max-workers", 0, "active-worker ceiling (0 = window-only: no worker scaling)")

		traceOn     = flag.Bool("trace", false, "start the flight recorder enabled (per-request lifecycle tracing; dump at GET /v1/admin/trace)")
		traceSample = flag.Float64("trace-sample", trace.DefaultSampleRate, "head-based trace sampling probability in [0,1]; SLO violations are always retained")
		pprofAddr   = flag.String("pprof", "", "net/http/pprof side listener address (empty = disabled)")

		journalDir   = flag.String("journal", "", "journal directory: enable the durable control plane (snapshot + injection log; single-engine only)")
		journalFsync = flag.String("journal-fsync", "interval", "journal fsync policy: interval, always or never")
		journalEvery = flag.Duration("journal-fsync-interval", 100*time.Millisecond, "background fsync cadence with -journal-fsync interval")
		snapEvery    = flag.Duration("snapshot-interval", 0, "periodic control-plane snapshot cadence (0 = only on POST /v1/admin/snapshot)")
		retain       = flag.String("journal-retain", "all", "journal retention: all (keeps deterministic replay) or snapshot (prune segments behind the latest snapshot)")
		segBytes     = flag.Int64("journal-segment-bytes", 64<<20, "rotate write-ahead segments at this size")
	)
	flag.Parse()

	if *listPolicies {
		for _, p := range clockwork.Policies() {
			fmt.Println(p)
		}
		return
	}
	fsyncPolicy, err := journal.ParseFsyncPolicy(*journalFsync)
	if err != nil {
		log.Fatalf("clockworkd: %v", err)
	}
	retention := journal.RetainAll
	switch *retain {
	case "all":
	case "snapshot":
		retention = journal.RetainToSnapshot
	default:
		log.Fatalf("clockworkd: unknown -journal-retain %q (want all or snapshot)", *retain)
	}

	cfg := clockwork.Config{
		Workers:       *workers,
		GPUsPerWorker: *gpus,
		Shards:        *shards,
		Policy:        clockwork.Policy(*policy),
		Seed:          *seed,
	}
	jopts := journal.Options{
		Fsync:           fsyncPolicy,
		FsyncEvery:      *journalEvery,
		MaxSegmentBytes: *segBytes,
		SnapshotEvery:   *snapEvery,
		Retain:          retention,
		Speed:           *speed,
		MaxInFlight:     *maxInFlight,
	}

	// Boot the system: recover from the journal when it has a prior
	// epoch (the journal's recorded state wins over the geometry and
	// preload flags), build fresh otherwise.
	var sys *clockwork.System
	var rec *journal.Recorder
	var names []string
	recovered := false
	if *journalDir != "" {
		if _, ok, err := journal.LatestEpoch(*journalDir); err != nil {
			log.Fatalf("clockworkd: journal: %v", err)
		} else if ok {
			ep, err := journal.Load(*journalDir)
			if err != nil {
				log.Fatalf("clockworkd: journal: %v", err)
			}
			rsys, carry, report, err := ep.Rebuild()
			if err != nil {
				log.Fatalf("clockworkd: journal recovery: %v", err)
			}
			sys = rsys
			cfg = carry.Config
			jopts.Speed = carry.Speed
			jopts.MaxInFlight = carry.MaxInFlight
			jopts.PriorRequests = carry.PriorRequests
			jopts.PriorAcked = carry.PriorAcked
			*speed = carry.Speed
			*maxInFlight = carry.MaxInFlight
			recovered = true
			base := "genesis"
			if report.UsedSnapshot {
				base = "snapshot"
			}
			log.Printf("clockworkd: recovered epoch %d from %s: %d models, %d workers, %d ops re-applied; %d requests this epoch (%d acked, %d in-flight dropped); lifetime %d requests / %d acked",
				report.Epoch, base, report.Models, report.Workers, report.AppliedOps,
				report.EpochRequests, report.EpochAcked, report.Unacked,
				report.TotalRequests, report.TotalAcked)
			if report.Truncated {
				log.Printf("clockworkd: journal tail truncated: %s", report.TruncatedNote)
			}
			names = sys.Models()
		}
	}
	if sys == nil {
		sys, err = clockwork.New(cfg)
		if err != nil {
			log.Fatalf("clockworkd: %v", err)
		}
		names, err = preloadModels(sys, *preload)
		if err != nil {
			log.Fatalf("clockworkd: %v", err)
		}
	}
	if *journalDir != "" {
		rec, err = journal.Create(*journalDir, sys, cfg, jopts)
		if err != nil {
			log.Fatalf("clockworkd: journal: %v", err)
		}
		verb := "journaling"
		if recovered {
			verb = "recovered; journaling"
		}
		log.Printf("clockworkd: %s to %s (epoch %d, fsync=%s, retain=%s)", verb, *journalDir, rec.Epoch(), fsyncPolicy, *retain)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("clockworkd: %v", err)
	}
	var ascCfg *serve.AutoscaleConfig
	if *autoscaleOn {
		ascCfg = &serve.AutoscaleConfig{
			Period:     *ascPeriod,
			MinWindow:  *ascMinWindow,
			MaxWindow:  *ascMaxWindow,
			MinWorkers: *ascMinWorkers,
			MaxWorkers: *ascMaxWorkers,
		}
	}
	if *traceSample < 0 || *traceSample > 1 {
		log.Fatalf("clockworkd: -trace-sample must be in [0, 1], got %g", *traceSample)
	}
	srv := serve.New(sys, serve.Options{
		Speed:       *speed,
		MaxInFlight: *maxInFlight,
		Journal:     rec,
		Autoscale:   ascCfg,
		Trace:       &serve.TraceConfig{Enabled: *traceOn, SampleRate: *traceSample},
	})
	if *traceOn {
		log.Printf("clockworkd: flight recorder on (sample=%g; dump at GET /v1/admin/trace)", *traceSample)
	}
	if *pprofAddr != "" {
		// net/http/pprof registers on the default mux; serve it from a
		// side listener so profiling never shares a port with the API.
		go func() {
			log.Printf("clockworkd: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("clockworkd: pprof: %v", err)
			}
		}()
	}
	if ascCfg != nil {
		rcfg := ascCfg.WithDefaults()
		log.Printf("clockworkd: autoscaler on (period=%v window=[%d,%d] workers=[%d,%d])",
			rcfg.Period, rcfg.MinWindow, rcfg.MaxWindow, rcfg.MinWorkers, rcfg.MaxWorkers)
	}
	log.Printf("clockworkd: listening on %s (workers=%d gpus=%d shards=%d policy=%s speed=%gx models=%d max-inflight=%d)",
		ln.Addr(), cfg.Workers, cfg.GPUsPerWorker, cfg.Shards, string(cfg.Policy), srv.Live().Speed(), len(names), *maxInFlight)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	if *streamAddr != "" {
		sln, err := net.Listen("tcp", *streamAddr)
		if err != nil {
			log.Fatalf("clockworkd: %v", err)
		}
		log.Printf("clockworkd: stream transport on %s", sln.Addr())
		go func() {
			if err := srv.ServeStream(sln); err != nil {
				log.Printf("clockworkd: stream transport: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("clockworkd: %v — draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("clockworkd: drain: %v", err)
		}
		<-done
	case err := <-done:
		if err != nil {
			log.Fatalf("clockworkd: %v", err)
		}
	}

	// The live driver is stopped, so the engine is quiescent and a
	// direct Summary read is safe.
	st := sys.Summary()
	log.Printf("clockworkd: served %d requests (%d succeeded, %d SLO misses), virtual time %v",
		st.Requests, st.Succeeded, st.SLOMisses, sys.Now().Round(time.Millisecond))
	log.Printf("clockworkd: drained cleanly")
}

// preloadModels parses "zoo[:copies],zoo[:copies],…" and registers the
// instances. A bare zoo name registers one instance named after the
// zoo entry; with copies the instances are "<zoo>#0" … .
func preloadModels(sys *clockwork.System, spec string) ([]string, error) {
	var names []string
	if spec == "" {
		return names, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		zoo, copies := part, 0
		if i := strings.LastIndex(part, ":"); i >= 0 {
			n, err := strconv.Atoi(part[i+1:])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad preload spec %q (want zoo[:copies])", part)
			}
			zoo, copies = part[:i], n
		}
		if copies == 0 {
			if err := sys.RegisterModel(zoo, zoo); err != nil {
				return nil, err
			}
			names = append(names, zoo)
			continue
		}
		instances, err := sys.RegisterCopies(zoo, zoo, copies)
		if err != nil {
			return nil, err
		}
		names = append(names, instances...)
	}
	return names, nil
}
