package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"clockwork"
	"clockwork/internal/autoscale"
	"clockwork/journal"
	"clockwork/trace"
)

// Options configures a Server.
type Options struct {
	// Speed is the virtual-vs-wall clock multiplier handed to
	// System.StartLive (<= 0 means 1.0: real time).
	Speed float64
	// MaxInFlight, if > 0, bounds the number of inference requests
	// admitted but not yet answered, across every transport (HTTP and
	// stream share one window). Beyond it the HTTP transport answers
	// 429 with Retry-After and the stream transport answers a typed
	// overloaded error frame — well-behaved clients shed load before
	// the engine's admission control has to cancel. 0 means unbounded.
	MaxInFlight int
	// Journal, if non-nil, records every externally-sourced injection
	// (submissions, registrations, worker ops, and read scrapes as
	// no-op records) plus an acknowledgement per completed request, for
	// crash recovery and deterministic replay. Single-engine systems
	// only — New panics on an EnginePerShard system with a journal, the
	// same boundary RunFor enforces. The server owns the recorder's
	// lifecycle: Shutdown closes it.
	Journal *journal.Recorder
	// Autoscale, if non-nil, closes the control loop: a periodic
	// engine-side policy (internal/autoscale) re-derives MaxInFlight
	// from observed SLO headroom and scales workers against sustained
	// demand, exposed at GET/POST /v1/admin/autoscaler. The initial
	// window is MaxInFlight clamped into the config's bounds
	// (MaxWindow when MaxInFlight is 0 — a closed loop needs a finite
	// window to move).
	Autoscale *AutoscaleConfig
	// Trace configures the flight recorder (per-request lifecycle
	// tracing; see clockwork/trace). A recorder is always attached —
	// attachment must precede engine start, so runtime enablement via
	// POST /v1/admin/trace works even when tracing starts disabled —
	// and nil Trace means "attached but disabled, default sample
	// rate". Tracing is a pure observer: request outcomes are
	// bit-identical at any sample rate.
	Trace *TraceConfig
}

// TraceConfig configures the flight recorder serve attaches to the
// system.
type TraceConfig struct {
	// Enabled starts recording immediately (otherwise the recorder
	// stays dormant until enabled through the admin plane).
	Enabled bool
	// SampleRate is the head-based sampling probability in [0, 1];
	// negative means the default (trace.DefaultSampleRate). SLO
	// violations are always retained regardless of the rate.
	SampleRate float64
	// RingSize and ViolationRingSize bound the per-shard retention
	// rings (0 = trace package defaults).
	RingSize          int
	ViolationRingSize int
}

// Server is the HTTP/JSON front end of a live System: it bridges
// concurrent connections onto the single-threaded engine through the
// Live driver (inferences are injected, every other engine-side call
// runs under Live.Do), so the engine keeps its lock-free
// single-goroutine discipline while the HTTP layer fans out.
//
// Endpoints:
//
//	POST /v1/infer          submit one inference, respond on completion
//	POST /v1/models         register a zoo model instance (or copies)
//	GET  /v1/models         list registered instances
//	GET  /v1/stats          Summary + serving-plane facts (JSON)
//	POST /v1/admin/workers        add a worker
//	POST /v1/admin/workers/drain  drain a worker
//	POST /v1/admin/workers/fail   fail a worker
//	POST /v1/admin/rebalance      run one rebalance pass
//	GET  /v1/admin/shards         per-shard outcome counters
//	GET  /v1/admin/autoscaler     closed-loop autoscaler status
//	POST /v1/admin/autoscaler     pause/resume the loop, force the window
//	GET  /v1/admin/trace          flight-recorder dump (Perfetto JSON)
//	POST /v1/admin/trace          enable/disable tracing, set sample rate
//	GET  /metrics           Prometheus text exposition
//	GET  /healthz           liveness
type Server struct {
	sys  *clockwork.System
	live *clockwork.Live
	mux  *http.ServeMux
	// rec is the injection journal (nil when journaling is off). Every
	// injected closure that reaches the engine appends exactly one
	// record batch through it — mutations as typed records, reads as
	// no-ops — so a replay can re-consume engine steps one-for-one.
	rec *journal.Recorder
	// flight is the always-attached flight recorder (see Options.Trace);
	// never nil after New.
	flight *trace.Recorder

	started time.Time

	mu       sync.Mutex
	draining bool
	hsrv     *http.Server

	// inflightN counts infer requests admitted but not yet finished (see
	// inflight.go), checked against maxInFlight (the backpressure window
	// — 0 means unbounded). Both transports admit through the same
	// window. drained is closed once the server is draining and the
	// count is zero: Shutdown's drain waits on it. stopCtx is cancelled
	// immediately before the driver stops, releasing any HTTP handler
	// still waiting on its outcome (a drain that hit its deadline): once
	// the clock halts, that outcome can never come.
	inflightN   int
	maxInFlight int
	drained     chan struct{}
	stopCtx     context.Context
	stopCancel  context.CancelFunc

	// Stream-transport state: open listeners (closed first on
	// Shutdown, so no new connections arrive during the drain) and
	// live connections (finished after the drain, so every queued
	// response frame is flushed before the sockets close).
	streamMu    sync.Mutex
	streamLns   map[net.Listener]struct{}
	streamConns map[*streamConn]struct{}

	// Closed-loop autoscaler state (asc nil when Options.Autoscale was
	// not given). shedPeriod counts admission rejections since the last
	// control tick (the tick swaps it to zero — the Shed signal);
	// shedTotal is the lifetime count for /metrics. The asc* mirrors
	// publish the loop's last decision lock-free so status reads never
	// touch the engine.
	asc        *autoscale.Controller
	ascEnabled atomic.Bool
	shedPeriod atomic.Uint64
	shedTotal  atomic.Uint64
	ascWindow  atomic.Int64
	ascTicks   atomic.Uint64
	ascMoves   atomic.Uint64
	ascAdded   atomic.Uint64
	ascDrained atomic.Uint64
	ascMu      sync.Mutex
	ascReason  string
}

// New starts the system's wall-clock driver and returns a server ready
// to accept connections (via Serve, or by mounting
// Handler on an existing mux). The caller must not drive the system's
// virtual clock (RunFor etc.) while the server lives; register models
// either before New or through the /v1/models endpoint.
func New(sys *clockwork.System, opts Options) *Server {
	// The flight recorder must be attached before the engines start
	// pacing (attachment writes per-controller fields no lock guards);
	// attaching even when tracing is off lets the admin plane enable it
	// at runtime. A recorder the caller attached earlier is kept.
	flight := sys.FlightRecorder()
	if flight == nil {
		topts := trace.Options{SampleRate: -1}
		if tc := opts.Trace; tc != nil {
			topts.Enabled = tc.Enabled
			topts.SampleRate = tc.SampleRate
			topts.RingSize = tc.RingSize
			topts.ViolationRingSize = tc.ViolationRingSize
		}
		flight = trace.New(topts)
		sys.AttachFlightRecorder(flight)
	}
	s := &Server{
		sys:         sys,
		live:        sys.StartLive(opts.Speed),
		mux:         http.NewServeMux(),
		rec:         opts.Journal,
		flight:      flight,
		started:     time.Now(),
		maxInFlight: opts.MaxInFlight,
		drained:     make(chan struct{}),
		streamLns:   make(map[net.Listener]struct{}),
		streamConns: make(map[*streamConn]struct{}),
	}
	if s.rec != nil && s.live.MultiEngine() {
		panic("serve: Options.Journal requires a single-engine system (journaling and replay are single-engine features)")
	}
	s.stopCtx, s.stopCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/infer", s.handleInfer)
	s.mux.HandleFunc("POST /v1/models", s.handleRegister)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/admin/workers", s.handleAddWorker)
	s.mux.HandleFunc("POST /v1/admin/workers/drain", s.handleWorkerOp("drain", sys.DrainWorker))
	s.mux.HandleFunc("POST /v1/admin/workers/fail", s.handleWorkerOp("fail", sys.FailWorker))
	s.mux.HandleFunc("POST /v1/admin/rebalance", s.handleRebalance)
	s.mux.HandleFunc("GET /v1/admin/shards", s.handleShards)
	s.mux.HandleFunc("POST /v1/admin/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/admin/journal", s.handleJournal)
	s.mux.HandleFunc("GET /v1/admin/autoscaler", s.handleAutoscalerGet)
	s.mux.HandleFunc("POST /v1/admin/autoscaler", s.handleAutoscalerPost)
	s.mux.HandleFunc("GET /v1/admin/trace", s.handleTraceGet)
	s.mux.HandleFunc("POST /v1/admin/trace", s.handleTracePost)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if opts.Autoscale != nil {
		cfg := opts.Autoscale.WithDefaults()
		s.asc = autoscale.New(cfg)
		// The loop needs a finite window to move: unbounded starts at
		// the ceiling, out-of-bounds starts clamped.
		if s.maxInFlight <= 0 || s.maxInFlight > cfg.MaxWindow {
			s.maxInFlight = cfg.MaxWindow
		} else if s.maxInFlight < cfg.MinWindow {
			s.maxInFlight = cfg.MinWindow
		}
		s.ascWindow.Store(int64(s.maxInFlight))
		s.ascEnabled.Store(true)
		s.live.Every(cfg.Period, s.autoscaleTick)
	}
	if s.rec != nil {
		if every := s.rec.SnapshotEvery(); every > 0 {
			// Periodic snapshots ride the same engine entry every other
			// injection uses (Live.Do), so the capture sees quiescent
			// state and the marker is that injection's record.
			go func() {
				t := time.NewTicker(every)
				defer t.Stop()
				for {
					select {
					case <-s.stopCtx.Done():
						return
					case <-t.C:
						_ = s.live.Do(func() { _, _ = s.rec.Snapshot() })
					}
				}
			}()
		}
	}
	return s
}

// recNoop journals an injected read closure (stats, metrics, model
// lists): no engine-visible effect, but one engine step that replay
// must consume identically. Engine-side, like every record call.
func (s *Server) recNoop() {
	if s.rec != nil {
		s.rec.Noop()
	}
}

// Live returns the wall-clock driver, for callers that mix direct
// in-process access with HTTP serving.
func (s *Server) Live() *clockwork.Live { return s.live }

// Handler returns the server's HTTP handler, for mounting on an
// existing mux or an httptest server.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It returns nil after
// a clean Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	hsrv := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.hsrv = hsrv
	s.mu.Unlock()
	err := hsrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server: new infers are refused with 503, the
// HTTP listener stops accepting, every in-flight request runs to its
// outcome (the engine keeps ticking while they drain), and only then
// does the wall-clock driver stop. ctx bounds the drain; on expiry the
// driver is stopped anyway and Shutdown returns ctx's error. A request
// the expired drain strands in the engine keeps its admission slot —
// its outcome can never come — and a later Shutdown does not wait for
// it: once the driver has stopped there is nothing left to drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.wakeDrainLocked()
	hsrv := s.hsrv
	s.mu.Unlock()

	// Stop accepting stream connections before the drain: frames on
	// existing connections are refused (draining error frames), but no
	// new connections may join.
	s.streamMu.Lock()
	for ln := range s.streamLns {
		_ = ln.Close()
	}
	s.streamMu.Unlock()

	var err error
	if hsrv != nil {
		err = hsrv.Shutdown(ctx)
	}
	select {
	case <-s.drained:
	case <-s.stopCtx.Done(): // an earlier Shutdown stopped the driver
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	// The in-flight count is zero (or the deadline expired): every
	// outcome has been queued on its connection's writer. Finish the
	// stream connections now — each writer flushes its queue and closes
	// the socket — so no completed response is lost to the shutdown.
	// The writers flush in parallel, bounded by ctx and a grace window:
	// a peer that stopped reading cannot stall the drain (its socket is
	// closed under the stalled writer, which unblocks it).
	s.streamMu.Lock()
	conns := make([]*streamConn, 0, len(s.streamConns))
	for sc := range s.streamConns {
		sc.close()
		conns = append(conns, sc)
	}
	s.streamMu.Unlock()
	grace := time.NewTimer(3 * time.Second)
	defer grace.Stop()
	for i := range conns {
		select {
		case <-conns[i].writerDone:
			continue
		case <-grace.C:
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		}
		for _, sc := range conns[i:] {
			sc.c.Close()
			<-sc.writerDone
		}
		break
	}
	// Release any handler still waiting on its outcome (only possible
	// when the drain deadline expired) before freezing the clock, so no
	// goroutine is stranded waiting on an engine that will never tick.
	s.stopCancel()
	s.live.Stop()
	// The engine goroutine is gone: no append can race the close. Flush
	// and fsync the journal tail so the drained state is durable.
	if s.rec != nil {
		if cerr := s.rec.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// admit registers one in-flight infer, refusing with ErrDraining once
// Shutdown has begun and with ErrOverloaded when the admission window
// (Options.MaxInFlight) is full. The checks and the increment share
// the mutex, so after Shutdown sets draining the in-flight count only
// decreases. Every successful admit must be paired with one release.
func (s *Server) admit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if s.maxInFlight > 0 && s.inflightN >= s.maxInFlight {
		// A shed is the autoscaler's loudest signal: this request
		// missed its SLO as surely as a late one (Signals.Shed). The
		// flight recorder counts it too, as SLO-miss provenance — a
		// shed request never reaches the engine, so this is the only
		// place its loss can be attributed.
		s.shedPeriod.Add(1)
		s.shedTotal.Add(1)
		s.flight.RecordShed()
		return ErrOverloaded
	}
	s.inflightN++
	return nil
}

// MaxInFlight returns the admission window currently in force (0 =
// unbounded). It moves at runtime when the autoscaler is on.
func (s *Server) MaxInFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxInFlight
}

// SetMaxInFlight re-derives the admission window at runtime. Requests
// already admitted keep their slots: shrinking below the current
// in-flight count admits nothing new until completions bring the count
// back under the window — no admitted request is ever evicted.
func (s *Server) SetMaxInFlight(n int) {
	s.mu.Lock()
	s.maxInFlight = n
	s.mu.Unlock()
}

// release undoes one admit, once the request's outcome has been handed
// to its transport (inflight.finish).
func (s *Server) release() {
	s.mu.Lock()
	s.inflightN--
	s.wakeDrainLocked()
	s.mu.Unlock()
}

// wakeDrainLocked closes drained once a draining server has no
// admitted request left without its outcome. Caller holds s.mu.
func (s *Server) wakeDrainLocked() {
	if !s.draining || s.inflightN > 0 {
		return
	}
	select {
	case <-s.drained:
	default:
		close(s.drained)
	}
}

// inflightLow reports whether the server is near-idle — the gate for
// the stream transport's inline-write latency fast path (under burst,
// responses take the coalescing writer instead).
func (s *Server) inflightLow() bool {
	s.mu.Lock()
	n := s.inflightN
	s.mu.Unlock()
	return n <= 2
}

// ---- handlers ----

// inferCall is the HTTP transport's per-request state: the decoded
// request, the response being built, the pooled decode buffer, and the
// outcome its inflight record hands back. It returns to the pool only
// once its outcome has been received: a handler abandoned by its client
// leaves it to the garbage collector, because the outcome may still be
// on its way into it.
type inferCall struct {
	req  InferRequest
	resp InferResponse
	body []byte
	res  clockwork.Result
	err  error
	// done is signalled (not closed) by externalize, so the channel
	// lives as long as the pooled struct.
	done chan struct{}
}

var inferCallPool = sync.Pool{New: func() any {
	return &inferCall{body: make([]byte, 0, 512), done: make(chan struct{}, 1)}
}}

func (c *inferCall) free() {
	c.req, c.resp, c.res, c.err = InferRequest{}, InferResponse{}, clockwork.Result{}, nil
	c.body = c.body[:0]
	inferCallPool.Put(c)
}

// externalize hands the outcome to the waiting handler, which writes it
// out. The send is its last touch of c: the handler may recycle c the
// moment it receives.
func (c *inferCall) externalize(_ *inflight, res clockwork.Result, err error) {
	c.res, c.err = res, err
	c.done <- struct{}{}
}

// handleInfer is the HTTP front door: decode, admit, inject a batch of
// one, wait for the outcome, encode. A refusal is just another outcome.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	c := inferCallPool.Get().(*inferCall)
	if !decodeJSONBuf(w, r, &c.req, &c.body) {
		c.free()
		return
	}
	if err := s.admit(); err != nil {
		c.free()
		if errors.Is(err, ErrOverloaded) {
			// One second is the resolution Retry-After has; the window
			// usually reopens far sooner.
			w.Header().Set("Retry-After", "1")
		}
		writeAPIError(w, err)
		return
	}
	it := s.newInflight(c, 0, clockwork.Request{
		Model:        c.req.Model,
		SLO:          c.req.SLO,
		Priority:     c.req.Priority,
		Tenant:       c.req.Tenant,
		MaxBatchSize: c.req.MaxBatchSize,
	})
	b := getBatch()
	b.its = append(b.its, it)
	s.injectOn(it.shard, b)
	// Wait for the outcome, the client disconnecting, or the server
	// giving up its drain (stopCtx) — the last so no handler is left
	// waiting on a clock that stopped ticking. An abandoned request still
	// runs to its outcome inside the engine, and keeps its admission slot
	// until then: nothing reaches a gone client, but the work is real.
	select {
	case <-c.done:
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, "client_gone", r.Context().Err())
		return
	case <-s.stopCtx.Done():
		writeAPIError(w, ErrDraining)
		return
	}
	defer c.free()
	if c.err != nil {
		writeAPIError(w, c.err)
		return
	}
	// Group-commit barrier: the ack buffered in finish must be in the
	// kernel before this handler puts the response on the wire. One
	// handler's flush covers every ack buffered since the last barrier.
	if s.rec != nil {
		s.rec.Flush()
	}
	res := &c.res
	c.resp = InferResponse{
		RequestID:  res.RequestID,
		Model:      res.Model,
		Tenant:     res.Tenant,
		Success:    res.Success,
		Reason:     res.Reason.String(),
		ReasonCode: uint8(res.Reason),
		Latency:    res.Latency,
		Batch:      res.Batch,
		ColdStart:  res.ColdStart,
	}
	writeJSON(w, &c.resp)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Instance == "" || req.Zoo == "" {
		writeError(w, http.StatusBadRequest, "invalid_request",
			errors.New("instance and zoo are required"))
		return
	}
	var names []string
	var err error
	doErr := s.live.Do(func() {
		if s.rec != nil {
			// Recorded before the call: a registration that fails here
			// (duplicate name) fails identically on recovery and replay,
			// restoring the same registry either way.
			s.rec.Register(req.Instance, req.Zoo, req.Copies)
		}
		if req.Copies > 0 {
			names, err = s.sys.RegisterCopies(req.Instance, req.Zoo, req.Copies)
		} else {
			err = s.sys.RegisterModel(req.Instance, req.Zoo)
			names = []string{req.Instance}
		}
	})
	if doErr != nil {
		writeAPIError(w, doErr)
		return
	}
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, RegisterResponse{Instances: names})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	var models []string
	if doErr := s.live.Do(func() { s.recNoop(); models = s.sys.Models() }); doErr != nil {
		writeAPIError(w, doErr)
		return
	}
	writeJSON(w, ModelsResponse{Models: models})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, doErr := s.snapshot()
	if doErr != nil {
		writeAPIError(w, doErr)
		return
	}
	writeJSON(w, st)
}

// fillStats populates st's engine-side fields. It must run
// engine-side (inside a live.Do closure); both /v1/stats and
// /metrics read through it so the two views cannot drift.
func (s *Server) fillStats(st *StatsResponse) {
	st.Summary = s.sys.Summary()
	st.VirtualNow = s.sys.Now()
	st.Workers = s.sys.Workers()
	st.Shards = s.sys.ShardCount()
	st.Models = s.sys.ModelCount()
}

// snapshot reads a consistent serving-plane summary on the engine
// goroutine.
func (s *Server) snapshot() (StatsResponse, error) {
	var st StatsResponse
	err := s.live.Do(func() { s.recNoop(); s.fillStats(&st) })
	st.Uptime = time.Since(s.started)
	st.Speed = s.live.Speed()
	return st, err
}

func (s *Server) handleAddWorker(w http.ResponseWriter, r *http.Request) {
	var id int
	doFn := func() {
		if s.rec != nil {
			s.rec.AddWorker()
		}
		id = s.sys.AddWorker()
	}
	if doErr := s.live.Do(doFn); doErr != nil {
		writeAPIError(w, doErr)
		return
	}
	writeJSON(w, WorkerResponse{ID: id, State: "active"})
}

func (s *Server) handleWorkerOp(kind string, op func(int) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req WorkerRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		var err error
		var state clockwork.WorkerState
		doErr := s.live.Do(func() {
			if s.rec != nil {
				switch kind {
				case "drain":
					s.rec.DrainWorker(req.ID)
				case "fail":
					s.rec.FailWorker(req.ID)
				}
			}
			if err = op(req.ID); err == nil {
				state, _ = s.sys.WorkerStateOf(req.ID)
			}
		})
		if doErr != nil {
			writeAPIError(w, doErr)
			return
		}
		if err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, WorkerResponse{ID: req.ID, State: state.String()})
	}
}

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	var migrated int
	doFn := func() {
		if s.rec != nil {
			s.rec.Rebalance()
		}
		migrated = s.sys.Rebalance()
	}
	if doErr := s.live.Do(doFn); doErr != nil {
		writeAPIError(w, doErr)
		return
	}
	writeJSON(w, RebalanceResponse{Migrated: migrated})
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	var resp ShardStatsResponse
	doErr := s.live.Do(func() {
		s.recNoop()
		n := s.sys.ShardCount()
		resp.Shards = make([]ShardStatsEntry, 0, n)
		for i := 0; i < n; i++ {
			st, err := s.sys.ShardStats(i)
			if err != nil {
				continue
			}
			resp.Shards = append(resp.Shards, ShardStatsEntry{Shard: i, ShardStats: st})
		}
		resp.Migrations = s.sys.Migrations()
	})
	if doErr != nil {
		writeAPIError(w, doErr)
		return
	}
	writeJSON(w, resp)
}

// handleSnapshot (POST /v1/admin/snapshot) takes an on-demand
// control-plane snapshot through the same engine entry the periodic
// ticker uses, and answers with where it landed.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		writeError(w, http.StatusNotFound, "no_journal", errors.New("journaling is not enabled (start with -journal)"))
		return
	}
	var info journal.SnapshotInfo
	var serr error
	doErr := s.live.Do(func() { info, serr = s.rec.Snapshot() })
	if doErr != nil {
		writeAPIError(w, doErr)
		return
	}
	if serr != nil {
		writeError(w, http.StatusInternalServerError, "snapshot_failed", serr)
		return
	}
	writeJSON(w, SnapshotResponse{
		Path:           info.Path,
		Seq:            info.Seq,
		Step:           info.Step,
		VirtualTime:    info.VT,
		Bytes:          info.Bytes,
		Models:         info.Models,
		Workers:        info.Workers,
		PrunedSegments: info.PrunedSegments,
	})
}

// handleJournal (GET /v1/admin/journal) reports journal health from the
// recorder's lock-free status mirrors — no engine call, no record, so
// scraping it does not perturb the replay stream.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		writeError(w, http.StatusNotFound, "no_journal", errors.New("journaling is not enabled (start with -journal)"))
		return
	}
	st := s.rec.Status()
	writeJSON(w, JournalStatusResponse{
		Dir:              st.Dir,
		Epoch:            st.Epoch,
		Segments:         st.Segments,
		Bytes:            st.Bytes,
		Records:          st.Records,
		Infers:           st.Infers,
		Acks:             st.Acks,
		Fsync:            st.Fsync.String(),
		UnsyncedBytes:    st.UnsyncedBytes,
		FsyncLag:         st.FsyncLag,
		Snapshots:        st.Snapshots,
		LastSnapshotPath: st.LastSnapshotPath,
		LastSnapshotSeq:  st.LastSnapshotSeq,
		LastSnapshotAge:  st.LastSnapshotAge,
		Failed:           st.Failed,
		Error:            st.Err,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// maxBodyBytes caps JSON request bodies (1MB — orders of magnitude
// above any legitimate request) so a hostile client cannot grow the
// daemon's memory with one enormous POST.
const maxBodyBytes = 1 << 20

// decodeJSON decodes a size-capped JSON body; on failure it writes the
// 400 and reports false. Handlers off the hot path use it directly;
// handleInfer goes through decodeJSONBuf with a pooled buffer.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	var body []byte
	return decodeJSONBuf(w, r, v, &body)
}

// decodeJSONBuf reads the body into *buf (reusing its capacity — the
// infer path hands a pooled slice, so steady-state decoding does not
// reallocate) and unmarshals it.
func decodeJSONBuf(w http.ResponseWriter, r *http.Request, v any, buf *[]byte) bool {
	b := (*buf)[:0]
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*buf = b
			writeError(w, http.StatusBadRequest, "bad_json", err)
			return false
		}
	}
	*buf = b
	if err := json.Unmarshal(b, v); err != nil {
		writeError(w, http.StatusBadRequest, "bad_json", err)
		return false
	}
	return true
}

// ---- response plumbing ----

// jsonBufPool holds encode buffers so writeJSON marshals into reused
// memory instead of allocating per response.
var jsonBufPool = sync.Pool{
	New: func() any { return bytes.NewBuffer(make([]byte, 0, 512)) },
}

// writeJSON buffer-encodes v before touching the ResponseWriter, so an
// encode failure can still become a real 500 errorResponse instead of
// the silent empty 200 the old direct-encode path produced (by the time
// a streaming encoder fails, the 200 status line is already on the
// wire).
func writeJSON(w http.ResponseWriter, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	err := json.NewEncoder(buf).Encode(v)
	if err != nil {
		jsonBufPool.Put(buf)
		writeError(w, http.StatusInternalServerError, "encode_failed", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
	jsonBufPool.Put(buf)
}

func writeAPIError(w http.ResponseWriter, err error) {
	status, code := errToCode(err)
	writeError(w, status, code, err)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error(), Code: code})
}
