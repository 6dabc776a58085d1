package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"clockwork"
	"clockwork/journal"
	"clockwork/serve"
)

// The live workloads share one system shape — EXPERIMENTS.md's loopback
// shape: 2 workers × 2 GPUs, 4 warm ResNet50 copies, the virtual clock
// at 500× the wall, a 500 ms virtual SLO (1 ms of wall time) — and
// differ in the transport in front of it and in whether the injection
// journal is recording.
const (
	liveSpeed  = 500
	liveSLO    = 500 * time.Millisecond
	liveCopies = 4
	liveZoo    = "resnet50_v1b"
	// loCallers makes the lo point: light load, little queueing, but
	// never an idle process. With ONE caller the process goes idle inside
	// every round trip, and the driver's sub-10 µs pacing timers then
	// fire through the Go runtime's idle path — 1.1–1.3 ms instead of
	// ~50 µs — on 3% to 40% of round trips depending on runtime state,
	// which parks p90 (and at worst p50) on the boundary between two
	// modes 20× apart. Four callers have no such mode: p50 and p90 repeat
	// within a few percent from one 2 s slice to the next.
	loCallers = 4
)

// liveSpec is one live workload.
type liveSpec struct {
	HTTP    bool // Serve + serve.Client instead of ServeStream + DialStream
	Journal bool // journal.Create(FsyncInterval) under os.TempDir()
	// Warm is the fixed number of warm-up requests that end set-up: a
	// count, not a duration, so set-up does the same work every round.
	Warm int
	// HiCallers closed-loop callers make the hi point: enough that both
	// cores always have a runnable goroutine. The lo point is loCallers
	// callers on every workload.
	HiCallers int
	Lo, Hi    time.Duration
	// Rung is how long the plain round of a traced run sends from one
	// caller before the lo point — the ladder's top rung (0 elsewhere).
	Rung time.Duration
	// Batch32 is how long a traced stream round pipelines 32-deep batches
	// from two callers after the hi point (0 elsewhere).
	Batch32 time.Duration
}

// liveSpecFor splits `seconds` of measurement over the three rounds, two
// fifths of each round at lo and three fifths at hi; size < 1 shrinks
// the warm-up for the smoke test.
func liveSpecFor(name string, seconds, size float64) liveSpec {
	round := seconds / rounds
	sp := liveSpec{
		Warm:      int(100_000 * size),
		HiCallers: 16, // 8 per connection
		Lo:        time.Duration(0.4 * round * float64(time.Second)),
		Hi:        time.Duration(0.6 * round * float64(time.Second)),
	}
	switch name {
	case "live_http":
		// HTTP/1.1 cannot multiplex: 8 callers are 8 keep-alive
		// connections, enough to saturate two cores.
		sp.HTTP, sp.Warm, sp.HiCallers = true, int(30_000*size), 8
	case "live_journal":
		sp.Journal = true
	}
	return sp
}

// inferer is the one call the load generator makes; serve.Client and
// serve.StreamClient both have it.
type inferer interface {
	Infer(ctx context.Context, req clockwork.Request) (clockwork.Result, error)
}

// loadGen is a closed-loop load generator: each caller sends its next
// request only when the previous one has returned, so there is no timer
// anywhere in the generator. (A sub-millisecond open-loop pacer on this
// path would measure Go's 1 ms netpoll timer, or — spinning — starve the
// poller; the simulator workload is where open-loop arrival is exact.)
type loadGen struct {
	client inferer
	models []string
	// order is the seeded sequence of model picks each caller cycles
	// through (offset by its index), generated before timing starts.
	order []uint8
	tr    *tracer
}

// run drives `callers` callers until `count` requests have been issued
// (count > 0) or `dur` has passed, and returns how many were sent and
// what came back. Spans, when traced, hang under parent.
func (g *loadGen) run(parent int64, callers, count int, dur time.Duration) (uint64, []outcome) {
	ctx, cancel := context.WithTimeout(context.Background(), dur+30*time.Second)
	defer cancel()
	// Room for 250k req/s, or the whole count on one caller: the logs
	// never grow inside a measured phase.
	capacity := count
	if count == 0 {
		capacity = int(dur.Seconds()*250_000)/callers + 1024
	}
	logs := make([][]outcome, callers)
	sent := make([]uint64, callers)
	tracks := make([]*spanTrack, callers)
	for c := range logs {
		logs[c] = make([]outcome, 0, capacity)
		tracks[c] = g.tr.track(capacity)
	}
	var issued atomic.Int64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log, track := logs[c], tracks[c]
			for i := c * 131; ; i++ {
				start := time.Now()
				if count > 0 {
					if issued.Add(1) > int64(count) {
						break
					}
				} else if start.After(deadline) {
					break
				}
				sent[c]++
				res, err := g.client.Infer(ctx, clockwork.Request{
					Model: g.models[g.order[i%len(g.order)]], SLO: liveSLO,
				})
				end := time.Now()
				var o outcome
				switch {
				case err == nil:
					o = outcomeOf(res)
				case errors.Is(err, serve.ErrOverloaded):
					o.flags = flagShed
				default:
					o.flags = flagError
				}
				o.wall = int64(end.Sub(start))
				log = append(log, o)
				track.add("client.Infer", parent, res.RequestID, start, end)
			}
			logs[c] = log
		}(c)
	}
	wg.Wait()
	var total uint64
	var all []outcome
	for c := range logs {
		total += sent[c]
		all = append(all, logs[c]...)
	}
	return total, all
}

// liveProbe is the set of counters read at a phase boundary of a traced
// round.
type liveProbe struct {
	steps   uint64
	virtual time.Duration
	wire    wireSnapshot
	journal journal.Status
}

// liveRound builds a fresh system and server, warms it with a fixed
// number of requests, then measures the lo and the hi point. tr is nil
// on an untraced round.
func liveRound(seed uint64, sp liveSpec, tr *tracer) (res *roundResult, err error) {
	r := &roundResult{WallLat: true, layer: map[string]float64{}}
	track := tr.track(64)
	root := track.begin("round", 0)
	// readHost reads the host clock; every metered stretch has a reading
	// right before and right after it, with the callers stopped.
	readHost := func() float64 {
		h := hostSpeed()
		r.hosts = append(r.hosts, h)
		return h
	}
	hostBefore := readHost()
	setup := track.begin("setup", root)
	t0 := time.Now()

	cfg := clockwork.Config{Workers: 2, GPUsPerWorker: 2, Seed: seed}
	id := track.begin("clockwork.New", setup)
	sys, err := clockwork.New(cfg)
	track.end(id)
	if err != nil {
		return nil, err
	}
	id = track.begin("clockwork.RegisterCopies", setup)
	models, err := sys.RegisterCopies("res", liveZoo, liveCopies)
	track.end(id)
	if err != nil {
		return nil, err
	}
	var rec *journal.Recorder
	var journalDir string
	if sp.Journal {
		id = track.begin("journal.Create", setup)
		if journalDir, err = os.MkdirTemp("", "clockwork-bench-journal-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(journalDir)
		rec, err = journal.Create(journalDir, sys, cfg, journal.Options{Fsync: journal.FsyncInterval, Speed: liveSpeed})
		track.end(id)
		if err != nil {
			return nil, err
		}
	}
	opts := serve.Options{Speed: liveSpeed, Journal: rec}
	if tr != nil {
		opts.Trace = &serve.TraceConfig{Enabled: true, SampleRate: 1, RingSize: traceRing}
	}
	id = track.begin("serve.New", setup)
	srv := serve.New(sys, opts)
	track.end(id)
	// From here the server owns the driver goroutine (and the journal):
	// every exit path must shut it down and wait for the accept loop.
	served := make(chan error, 1)
	listening := false
	stopped := false
	closeClient := func() {}
	shutdown := func() error {
		if stopped {
			return nil
		}
		stopped = true
		closeClient()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		serr := srv.Shutdown(ctx)
		if listening {
			if aerr := <-served; serr == nil {
				serr = aerr
			}
		}
		return serr
	}
	defer func() {
		if serr := shutdown(); serr != nil && err == nil {
			res, err = nil, fmt.Errorf("shutdown: %w", serr)
		}
	}()

	id = track.begin("listen+dial", setup)
	var ln net.Listener
	if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if tr != nil {
		ln = countingListener{Listener: ln, counts: tr.counts}
	}
	listening = true
	gen := &loadGen{models: models, tr: tr}
	if sp.HTTP {
		go func() { served <- srv.Serve(ln) }()
		// serve.NewClient's own defaults, on a transport the round can
		// close: a connection the transport dialled speculatively and
		// never used would otherwise hold http.Server.Shutdown for 5 s.
		transport := http.DefaultTransport.(*http.Transport).Clone()
		transport.MaxIdleConns, transport.MaxIdleConnsPerHost = 512, 512
		closeClient = transport.CloseIdleConnections
		hc := serve.NewClient(ln.Addr().String(), &http.Client{Transport: transport})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = hc.WaitReady(ctx)
		cancel()
		if err != nil {
			return nil, err
		}
		gen.client = hc
	} else {
		go func() { served <- srv.ServeStream(ln) }()
		sc, derr := serve.DialStream(ln.Addr().String(), serve.StreamOptions{Conns: 2})
		if derr != nil {
			return nil, derr
		}
		closeClient = func() { sc.Close() }
		gen.client = sc
	}
	track.end(id)
	pick := rand.New(rand.NewSource(int64(seed)))
	gen.order = make([]uint8, 4093) // prime: callers' strides do not align
	for i := range gen.order {
		gen.order[i] = uint8(pick.Intn(len(models)))
	}

	id = track.begin("warmup", setup)
	warmSent, warmLog := gen.run(id, sp.HiCallers, sp.Warm, time.Minute)
	track.end(id)
	track.end(setup)
	r.Setup = time.Since(t0)
	r.SetupHost = (hostBefore + readHost()) / 2

	// probe reads the engine-side counters on the engine goroutine. With
	// the journal on, the injected read is recorded as the no-op it is,
	// exactly as serve records its own scrapes: replay must consume the
	// step it took.
	probe := func() (p liveProbe) {
		if tr == nil {
			return p
		}
		_ = srv.Live().Do(func() {
			if rec != nil {
				rec.Noop()
			}
			p.steps, p.virtual = sys.EngineSteps(), sys.Now()
		})
		p.wire = tr.counts.snapshot()
		if rec != nil {
			p.journal = rec.Status()
		}
		return p
	}
	// measure runs one load point and folds what came back; the folding
	// happens after the phase's meter has stopped.
	measure := func(name string, callers int, dur time.Duration) (phaseStats, []outcome) {
		var p phaseStats
		before := probe()
		hostBefore := readHost()
		id := track.begin(name, root)
		m := startMeter()
		sent, log := gen.run(id, callers, 0, dur)
		p.use = m.stop()
		track.end(id)
		p.Host = (hostBefore + readHost()) / 2
		after := probe()
		p.tally(sent, log, liveSLO, true)
		p.VirtualStart = before.virtual
		p.Steps, p.Virtual, p.wire = after.steps-before.steps, after.virtual-before.virtual, after.wire.sub(before.wire)
		p.journalBytes = uint64(after.journal.Bytes - before.journal.Bytes)
		p.journalRecords = after.journal.Records - before.journal.Records
		r.checkConservation(name, &p)
		return p, log
	}

	var rungSent uint64
	var rungLog []outcome
	if tr == nil && sp.Rung > 0 {
		rungSent, rungLog = gen.run(root, 1, 0, sp.Rung)
		var rung phaseStats
		rung.tally(rungSent, rungLog, liveSLO, true)
		r.checkConservation("rung", &rung)
		r.layer["net.tcp_rt_us"] = rung.lat.pct(50)
	}
	var loLog, hiLog []outcome
	r.Lo, loLog = measure("lo", loCallers, sp.Lo)
	var lagMax atomic.Int64
	stopLag := sampleFsyncLag(rec, tr, &lagMax)
	r.Hi, hiLog = measure("hi", sp.HiCallers, sp.Hi)
	stopLag()
	var batchSent uint64
	if tr != nil && sp.Batch32 > 0 {
		var rps float64
		if batchSent, rps, err = batch32(gen.client.(*serve.StreamClient), models, sp.Batch32); err != nil {
			return nil, err
		}
		r.layer["serve.stream_batch32_rps"] = rps
	}
	track.end(root)
	if err = shutdown(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	// Off the clock, engine stopped: fold outcomes, look for duplicates,
	// cross-check the journal and read the flight recorder.
	r.Warm = warmSent + rungSent
	var warm phaseStats
	warm.tally(warmSent, warmLog, liveSLO, true)
	r.checkConservation("warm-up", &warm)
	if warm.Completed != warmSent {
		r.problemf("warm-up: sent %d, completed %d (errors %d, shed %d)", warmSent, warm.Completed, warm.Errors, warm.Shed)
	}
	var ids []uint64
	for _, log := range [][]outcome{warmLog, rungLog, loLog, hiLog} {
		for i := range log {
			ids = append(ids, log[i].id)
		}
	}
	r.Dups = countDuplicates(ids)

	sentAll := r.Warm + r.Lo.Sent + r.Hi.Sent + batchSent
	if rec != nil {
		st := rec.Status()
		if st.Failed {
			r.problemf("journal failed: %s", st.Err)
		}
		if completed := warm.Completed + rungSent + r.Lo.Completed + r.Hi.Completed + batchSent; st.Infers != sentAll || st.Acks != completed {
			r.problemf("journal holds %d infers / %d acks, generator sent %d / saw %d complete", st.Infers, st.Acks, sentAll, completed)
		}
	}
	if tr != nil {
		tot := selfTimes(tr.log.all(), setup)
		r.layer["clockwork.new_ms"] = tot["clockwork.New"].Total.Seconds() * 1e3
		r.layer["clockwork.register_us_per_model"] = tot["clockwork.RegisterCopies"].Total.Seconds() * 1e6 / liveCopies
		r.layer["clockwork.pacer_vratio"] = r.Hi.Virtual.Seconds() / (r.Hi.use.Wall.Seconds() * liveSpeed)
		flightLayer(r.layer, sys.FlightRecorder(), r.Hi.VirtualStart, sentAll)
		if rec != nil {
			r.layer["journal.fsync_lag_ms_max"] = float64(lagMax.Load()) / 1e6
			if err := journalLayer(r.layer, journalDir, tr.track(8)); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// sampleFsyncLag polls the journal's fsync lag every 20 ms while the hi
// point of a traced journal round runs and keeps the maximum; the
// returned function stops the sampler and waits for it. The sampler's
// ticker is the one timer in a traced round, and it is off the
// generator's path.
func sampleFsyncLag(rec *journal.Recorder, tr *tracer, maxLag *atomic.Int64) (stop func()) {
	if rec == nil || tr == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if lag := int64(rec.Status().FsyncLag); lag > maxLag.Load() {
					maxLag.Store(lag)
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// batch32 drives two callers pipelining 32-deep SubmitBatch calls for
// dur — the shape the zero-alloc lifecycle work was judged on — and
// returns requests sent and completed requests per second.
func batch32(sc *serve.StreamClient, models []string, dur time.Duration) (uint64, float64, error) {
	const depth = 32
	var wg sync.WaitGroup
	var sent [2]uint64
	var errs [2]error
	start := time.Now()
	deadline := start.Add(dur)
	for c := range sent {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reqs := make([]clockwork.Request, depth)
			for i := range reqs {
				reqs[i] = clockwork.Request{Model: models[(c+i)%len(models)], SLO: liveSLO}
			}
			for time.Now().Before(deadline) {
				outs, err := sc.SubmitBatch(context.Background(), reqs)
				if err != nil {
					errs[c] = err
					return
				}
				for _, o := range outs {
					if o.Err != nil {
						errs[c] = o.Err
						return
					}
				}
				sent[c] += depth
			}
		}(c)
	}
	wg.Wait()
	el := time.Since(start)
	if err := errors.Join(errs[:]...); err != nil {
		return 0, 0, fmt.Errorf("batch32: %w", err)
	}
	return sent[0] + sent[1], float64(sent[0]+sent[1]) / el.Seconds(), nil
}

// journalLayer reads the closed journal back the way a booting daemon
// and clockwork-replay do: Load, Rebuild, and a full deterministic
// replay whose SHA-256 over the re-executed ack stream must match the
// recorded one.
func journalLayer(layer map[string]float64, dir string, track *spanTrack) error {
	id := track.begin("journal.Load", 0)
	start := time.Now()
	ep, err := journal.Load(dir)
	track.end(id)
	if err != nil {
		return fmt.Errorf("journal load: %w", err)
	}
	layer["journal.load_ms"] = time.Since(start).Seconds() * 1e3
	id = track.begin("journal.Rebuild", 0)
	start = time.Now()
	_, _, _, err = ep.Rebuild()
	track.end(id)
	if err != nil {
		return fmt.Errorf("journal rebuild: %w", err)
	}
	layer["journal.rebuild_ms"] = time.Since(start).Seconds() * 1e3
	id = track.begin("journal.ReplayEpoch", 0)
	start = time.Now()
	rep, err := journal.ReplayEpoch(ep)
	track.end(id)
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	layer["journal.replay_us_per_rec"] = time.Since(start).Seconds() * 1e6 / float64(len(ep.Records))
	layer["journal.replay_match"] = 0
	if rep.Match {
		layer["journal.replay_match"] = 1
	}
	return nil
}
