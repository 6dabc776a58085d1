package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"clockwork"
	"clockwork/internal/simclock"
	"clockwork/journal"
	"clockwork/serve"
	"clockwork/serve/stream"
)

// The ladder sends the same request through successively deeper public
// entry points, one caller at a time, so the unloaded round trip splits
// into rungs measured from outside:
//
//	clockwork.floor_us   Live.InjectOn(SubmitRequestSink) until OnResult — the engine floor
//	serve.mem_rt_us      the transport with the kernel removed (net.Pipe / ServeHTTP)
//	net.tcp_rt_us        the same request over loopback TCP, one caller
//
// serve.transport_self_us and net.tcp_self_us are the two differences, so
// the three rungs sum to net.tcp_rt_us by construction. Every rung is a
// median: with one caller the runtime's idle path turns some round trips
// into 1.2 ms ones (see loCallers), and the median stays clear of them.

// ladderIters is how many sequential round trips each rung takes at
// size 1 (the smoke test runs a fiftieth of it). With one caller a third
// of them take the runtime's 1.2 ms idle path, so 5,000 cost about 2 s.
func ladderIters(size float64) int { return max(100, int(5_000*size)) }

func medianOf(samples []float64) float64 {
	sort.Float64s(samples)
	return percentile(samples, 50)
}

// spinner is a no-op event that re-arms itself a fixed distance ahead,
// keeping the heap at a constant depth.
type spinner struct {
	eng  *simclock.Engine
	left *int
}

func (s *spinner) Run() {
	if *s.left > 0 {
		*s.left--
		s.eng.ScheduleRun(s.eng.Now().Add(1024), s)
	}
}

// engineRung times the bare event engine: one million no-op Runner
// events through a heap held 1,024 deep.
func engineRung(layer map[string]float64, size float64, track *spanTrack) {
	const depth = 1024
	events := max(2*depth, int(1_000_000*size))
	eng := simclock.NewEngine()
	left := events - depth
	for i := 0; i < depth; i++ {
		eng.ScheduleRun(simclock.Time(i+1), &spinner{eng: eng, left: &left})
	}
	id := track.begin("simclock.Engine.Run", 0)
	start := time.Now()
	eng.Run()
	el := time.Since(start)
	track.end(id)
	layer["simclock.ns_per_event"] = float64(el.Nanoseconds()) / float64(eng.Steps())
}

// liveSystem builds the live workloads' system shape.
func liveSystem(seed uint64) (*clockwork.System, clockwork.Config, []string, error) {
	cfg := clockwork.Config{Workers: 2, GPUsPerWorker: 2, Seed: seed}
	sys, err := clockwork.New(cfg)
	if err != nil {
		return nil, cfg, nil, err
	}
	models, err := sys.RegisterCopies("res", liveZoo, liveCopies)
	return sys, cfg, models, err
}

// countSink counts outcomes on the engine goroutine and signals when a
// whole injected batch has been answered.
type countSink struct {
	got, want int
	done      chan struct{}
}

func (s *countSink) OnResult(clockwork.Result) {
	if s.got++; s.got == s.want {
		s.got = 0
		s.done <- struct{}{}
	}
}

// floorRungs measures the layers below the transports on a live system
// with no server in front: the injection wake-up, the engine floor and
// the coalesced sink path.
func floorRungs(layer map[string]float64, seed uint64, size float64, track *spanTrack) error {
	iters := ladderIters(size)
	sys, _, models, err := liveSystem(seed)
	if err != nil {
		return err
	}
	live := sys.StartLive(liveSpeed)
	defer live.Stop()
	req := clockwork.Request{Model: models[0], SLO: liveSLO}

	// Engine floor: one injection in, one outcome out — the path both
	// transports take below their own code (InjectOn → SubmitRequestSink →
	// OnResult), with a channel send as the only thing above it. The
	// closure and the sink are hoisted, so the loop allocates nothing and
	// the malloc delta is the system's. (Live.Do + Handle.Wait is not a
	// floor: Do waits for the closure to run before Wait can start, one
	// more synchronous hand-off than the stream transport makes.)
	sink := &countSink{want: 1, done: make(chan struct{}, 1)}
	var serr error
	submit := func() {
		if serr = sys.SubmitRequestSink(0, req, sink); serr != nil {
			sink.OnResult(clockwork.Result{})
		}
	}
	fire := func() error {
		if !live.InjectOn(0, submit) {
			return clockwork.ErrLiveStopped
		}
		<-sink.done
		return serr
	}
	for i := 0; i < iters/10; i++ { // fill pools and free lists
		if err := fire(); err != nil {
			return fmt.Errorf("floor: %w", err)
		}
	}
	samples := make([]float64, iters)
	id := track.begin("clockwork.floor", 0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range samples {
		t := time.Now()
		if err := fire(); err != nil {
			return fmt.Errorf("floor: %w", err)
		}
		samples[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	runtime.ReadMemStats(&m1)
	track.end(id)
	layer["clockwork.floor_us"] = medianOf(samples)
	layer["clockwork.floor_allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / float64(iters)

	// Injection wake-up: the engine is idle (parked on its timer) when
	// the closure is injected; the sample ends when the closure starts.
	wakes := iters / 5
	wake := make([]float64, 0, wakes)
	ran := make(chan time.Time, 1)
	note := func() { ran <- time.Now() }
	id = track.begin("simclock.inject_wake", 0)
	for i := 0; i < wakes; i++ {
		time.Sleep(200 * time.Microsecond) // let the driver park
		t := time.Now()
		if !live.Inject(note) {
			return fmt.Errorf("inject_wake: driver stopped")
		}
		wake = append(wake, float64((<-ran).Sub(t).Nanoseconds())/1e3)
	}
	track.end(id)
	layer["simclock.inject_wake_us"] = medianOf(wake)

	// Sink path, saturated: two injectors each keep one closure of 64
	// SubmitRequestSink calls in flight — what a coalesced stream batch
	// costs the engine per request, with no transport around it.
	const perInject = 64
	sinkFor := time.Duration(float64(500*time.Millisecond) * size)
	var wg sync.WaitGroup
	var total [2]int
	var errs [2]error
	id = track.begin("clockwork.sink", 0)
	start := time.Now()
	for g := range total {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sink := &countSink{want: perInject, done: make(chan struct{}, 1)}
			r := clockwork.Request{Model: models[g%len(models)], SLO: liveSLO}
			var ierr error
			batch := func() {
				for i := 0; i < perInject; i++ {
					if err := sys.SubmitRequestSink(0, r, sink); err != nil {
						ierr = err
						sink.OnResult(clockwork.Result{}) // keep the batch's count whole
					}
				}
			}
			for time.Since(start) < sinkFor && ierr == nil {
				if !live.InjectOn(0, batch) {
					ierr = clockwork.ErrLiveStopped
					break
				}
				<-sink.done
				total[g] += perInject
			}
			errs[g] = ierr
		}(g)
	}
	wg.Wait()
	el := time.Since(start)
	track.end(id)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("sink: %w", err)
		}
	}
	layer["clockwork.sink_us_per_req"] = el.Seconds() * 1e6 / float64(total[0]+total[1])
	return nil
}

// pipeListener is an in-memory net.Listener: dial hands the server one
// end of a net.Pipe, so ServeStream runs unchanged with no kernel socket
// under it.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// memRung measures the workload's transport with the kernel removed:
// ServeStream over an in-memory pipe spoken with the public frame codec,
// or the HTTP handler called directly. The journal, when the workload
// has one, is recording.
func memRung(layer map[string]float64, sp liveSpec, seed uint64, size float64, track *spanTrack) (err error) {
	iters := ladderIters(size)
	sys, cfg, models, err := liveSystem(seed)
	if err != nil {
		return err
	}
	opts := serve.Options{Speed: liveSpeed}
	if sp.Journal {
		dir, err := os.MkdirTemp("", "clockwork-bench-ladder-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if opts.Journal, err = journal.Create(dir, sys, cfg, journal.Options{Fsync: journal.FsyncInterval, Speed: liveSpeed}); err != nil {
			return err
		}
	}
	srv := serve.New(sys, opts)
	served := make(chan error, 1)
	ln := newPipeListener()
	if !sp.HTTP {
		go func() { served <- srv.ServeStream(ln) }()
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		serr := srv.Shutdown(ctx)
		if !sp.HTTP {
			<-served
		}
		if err == nil && serr != nil {
			err = fmt.Errorf("mem_rt shutdown: %w", serr)
		}
	}()

	var trip func(i int) error
	if sp.HTTP {
		handler := srv.Handler()
		trip = func(i int) error {
			body, err := json.Marshal(serve.InferRequest{Model: models[i%len(models)], SLO: liveSLO})
			if err != nil {
				return err
			}
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
			var resp serve.InferResponse
			if w.Code != http.StatusOK {
				return fmt.Errorf("http %d: %s", w.Code, w.Body.String())
			}
			if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
				return err
			}
			if !resp.Success {
				return fmt.Errorf("inference failed: %s", resp.Reason)
			}
			return nil
		}
	} else {
		conn, err := ln.dial()
		if err != nil {
			return err
		}
		defer conn.Close()
		enc, dec := stream.NewEncoder(conn), stream.NewDecoder(conn)
		trip = func(i int) error {
			f := stream.InferFrame{Corr: uint64(i + 1), SLO: int64(liveSLO), Model: models[i%len(models)]}
			if err := enc.Infer(&f); err != nil {
				return err
			}
			if err := enc.Flush(); err != nil {
				return err
			}
			typ, p, err := dec.Next()
			if err != nil {
				return err
			}
			var res stream.ResultFrame
			if typ != stream.TypeResult || stream.DecodeResult(p, &res) != nil {
				return fmt.Errorf("unexpected frame type %d", typ)
			}
			if res.Corr != f.Corr || !res.Success {
				return fmt.Errorf("result corr %d success %v for request %d", res.Corr, res.Success, f.Corr)
			}
			return nil
		}
	}
	for i := 0; i < iters/10; i++ {
		if err := trip(i); err != nil {
			return fmt.Errorf("mem_rt: %w", err)
		}
	}
	samples := make([]float64, iters)
	id := track.begin("serve.mem_rt", 0)
	for i := range samples {
		t := time.Now()
		if err := trip(i); err != nil {
			return fmt.Errorf("mem_rt: %w", err)
		}
		samples[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	track.end(id)
	layer["serve.mem_rt_us"] = medianOf(samples)
	return nil
}

// codecRung times the stream codec's four operations on one request's
// frames, with no connection: encode into a discarding writer, decode
// from a prebuilt frame.
func codecRung(layer map[string]float64, size float64, track *spanTrack) error {
	n := 40 * ladderIters(size)
	infer := stream.InferFrame{Corr: 1 << 20, SLO: int64(liveSLO), Model: "res#3"}
	result := stream.ResultFrame{Corr: 1 << 20, RequestID: 1 << 20, Latency: 3_141_592, Batch: 1, Success: true}
	var inferWire, resultWire bytes.Buffer
	e := stream.NewEncoder(&inferWire)
	if err := e.Infer(&infer); err != nil {
		return err
	}
	if err := e.Flush(); err != nil {
		return err
	}
	e = stream.NewEncoder(&resultWire)
	if err := e.Result(&result); err != nil {
		return err
	}
	if err := e.Flush(); err != nil {
		return err
	}
	inferReader, resultReader := bytes.NewReader(nil), bytes.NewReader(nil)
	inferDec, resultDec := stream.NewDecoder(inferReader), stream.NewDecoder(resultReader)
	enc := stream.NewEncoder(io.Discard)

	id := track.begin("stream.codec", 0)
	defer track.end(id)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var opErr error
	timeOp := func(name string, op func() error) {
		start := time.Now()
		for i := 0; i < n && opErr == nil; i++ {
			opErr = op()
		}
		layer[name] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	timeOp("stream.encode_infer_ns", func() error {
		if err := enc.Infer(&infer); err != nil {
			return err
		}
		return enc.Flush()
	})
	timeOp("stream.encode_result_ns", func() error {
		if err := enc.Result(&result); err != nil {
			return err
		}
		return enc.Flush()
	})
	var f stream.InferFrame
	timeOp("stream.decode_infer_ns", func() error {
		inferReader.Reset(inferWire.Bytes())
		_, p, err := inferDec.Next()
		if err != nil {
			return err
		}
		return inferDec.DecodeInfer(p, &f)
	})
	var res stream.ResultFrame
	timeOp("stream.decode_result_ns", func() error {
		resultReader.Reset(resultWire.Bytes())
		_, p, err := resultDec.Next()
		if err != nil {
			return err
		}
		return stream.DecodeResult(p, &res)
	})
	runtime.ReadMemStats(&m1)
	if opErr != nil {
		return fmt.Errorf("codec: %w", opErr)
	}
	if f != infer || res != result {
		return fmt.Errorf("codec: frames did not survive the round trip")
	}
	layer["stream.allocs_per_rt"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	return nil
}
