package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"clockwork"
	"clockwork/trace"
	"clockwork/workload"
)

// simSpec sizes the sim_coldtail workload: a pure-simulator run with no
// transport, driven by a pre-generated open-loop Poisson schedule in
// virtual time. Thousands of instances under a Zipf popularity law keep
// a cold tail cycling through the page cache, so the scheduler's
// load-selection work — not the event heap — dominates the hi point.
type simSpec struct {
	Workers, GPUs, Models int
	Zipf                  float64
	SLO                   time.Duration
	// Phases in virtual time. Warm fills page caches and profile windows
	// and is part of set-up; lo and hi are the two measured load points;
	// the drain lets the last hi request reach its outcome (SLO ≪ drain).
	Warm, Lo, Hi, Drain time.Duration
	// Poisson arrivals per virtual second. Capacity is about 5,300/s:
	// hi sits at ~85% of it, just under the knee; lo at ~8%, where
	// latency is the models' own and repeats across seeds (at 1,500/s
	// the scheduler's batching makes the median path-dependent: ±20%
	// from one seed to the next).
	WarmRate, LoRate, HiRate float64
}

// simSpecFor scales the measured phases so the three rounds together
// measure for about `seconds` of host time on the box the workload was
// sized on (hi ≈ 5.9k req/s of host time, lo ≈ 30k); size < 1 shrinks
// the model population and the warm-up for the smoke test.
func simSpecFor(seconds, size float64) simSpec {
	k := seconds / 24
	return simSpec{
		Workers: 8, GPUs: 2,
		Models:   int(math.Max(64, 4096*size)),
		Zipf:     0.9,
		SLO:      100 * time.Millisecond,
		Warm:     time.Duration(15 * size * float64(time.Second)),
		Lo:       time.Duration(40 * k * float64(time.Second)),
		Hi:       time.Duration(7.5 * k * float64(time.Second)),
		Drain:    time.Second,
		WarmRate: 1500, LoRate: 400, HiRate: 4500,
	}
}

const (
	phaseWarm = iota
	phaseLo
	phaseHi
	numPhases
)

// arrival is one scheduled submission.
type arrival struct {
	at    time.Duration
	model int32
	phase uint8
}

// simSchedule generates the arrival schedule from the seed alone:
// Poisson gaps per phase (the §6.3 open-loop process) and a Zipf model
// pick per arrival. Equal (seed, spec) give equal schedules.
func simSchedule(seed uint64, sp simSpec) []arrival {
	cdf := make([]float64, sp.Models)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), sp.Zipf)
		cdf[i] = sum
	}
	pick := rand.New(rand.NewSource(int64(seed)))
	type ph struct {
		dur  time.Duration
		rate float64
	}
	phases := [numPhases]ph{{sp.Warm, sp.WarmRate}, {sp.Lo, sp.LoRate}, {sp.Hi, sp.HiRate}}
	var out []arrival
	base := time.Duration(0)
	for p, phs := range phases {
		gaps := workload.NewPoissonArrivals(seed*numPhases+uint64(p), phs.rate)
		for t := gaps.Next(); t < phs.dur; t += gaps.Next() {
			m := sort.SearchFloat64s(cdf, pick.Float64()*sum)
			if m >= sp.Models {
				m = sp.Models - 1
			}
			out = append(out, arrival{at: base + t, model: int32(m), phase: uint8(p)})
		}
		base += phs.dur
	}
	return out
}

// simSink receives one phase's outcomes on the engine goroutine.
type simSink struct{ log []outcome }

func (s *simSink) OnResult(res clockwork.Result) { s.log = append(s.log, outcomeOf(res)) }

// simRound builds a fresh system, replays the schedule through it and
// returns what the two measured phases cost in host time. tr is nil on
// an untraced round.
func simRound(seed uint64, sp simSpec, tr *tracer) (*roundResult, error) {
	r := &roundResult{layer: map[string]float64{}}
	track := tr.track(2*int(sp.WarmRate*sp.Warm.Seconds()+sp.LoRate*sp.Lo.Seconds()+sp.HiRate*sp.Hi.Seconds()) + 64)
	root := track.begin("round", 0)
	host := hostSpeed() // the host clock is read around every metered stretch
	r.hosts = append(r.hosts, host)
	setup := track.begin("setup", root)
	t0 := time.Now()

	id := track.begin("clockwork.New", setup)
	sys, err := clockwork.New(clockwork.Config{
		Workers: sp.Workers, GPUsPerWorker: sp.GPUs, Seed: seed,
		ZeroLengthInputs: true, // §6.5's scale methodology
	})
	track.end(id)
	if err != nil {
		return nil, err
	}
	var flight *trace.Recorder
	if tr != nil {
		flight = trace.New(trace.Options{Enabled: true, SampleRate: 1, RingSize: traceRing})
		sys.AttachFlightRecorder(flight)
	}
	zoo := clockwork.ZooModels()
	names := make([]string, sp.Models)
	id = track.begin("clockwork.RegisterModel", setup)
	for i := range names {
		z := zoo[i%len(zoo)]
		names[i] = fmt.Sprintf("%s#%d", z, i/len(zoo))
		if err := sys.RegisterModel(names[i], z); err != nil {
			return nil, err
		}
	}
	track.end(id)
	id = track.begin("schedule", setup)
	sched := simSchedule(seed, sp)
	var sinks [numPhases]*simSink
	var sent [numPhases]uint64
	for _, a := range sched {
		sent[a.phase]++
	}
	for p := range sinks {
		sinks[p] = &simSink{log: make([]outcome, 0, sent[p])}
	}
	track.end(id)

	// One pass over the schedule. At a phase boundary the clock is first
	// advanced to the boundary, so each phase's meter covers exactly the
	// host time spent on its own span of virtual time (the hi meter also
	// covers the drain). The host clock is read at the boundaries only: a
	// burst inside a phase would evict the simulator's working set.
	var meters [numPhases]usage
	var phaseHost [numPhases]float64
	var steps [numPhases]uint64
	ends := [numPhases]time.Duration{sp.Warm, sp.Warm + sp.Lo, sp.Warm + sp.Lo + sp.Hi + sp.Drain}
	spanNames := [numPhases]string{"warmup", "lo", "hi"}
	var phaseSpan [numPhases]int64
	next := 0
	for p := 0; p < numPhases; p++ {
		parent := root
		if p == phaseWarm {
			parent = setup
		}
		ph := track.begin(spanNames[p], parent)
		phaseSpan[p] = ph
		m := startMeter()
		step0 := sys.EngineSteps()
		before := host
		for ; next < len(sched) && int(sched[next].phase) == p; next++ {
			a := &sched[next]
			req := clockwork.Request{Model: names[a.model], SLO: sp.SLO}
			if track == nil {
				sys.RunUntil(a.at)
				err = sys.SubmitRequestSink(0, req, sinks[p])
			} else {
				ta := time.Now()
				sys.RunUntil(a.at)
				tb := time.Now()
				err = sys.SubmitRequestSink(0, req, sinks[p])
				tc := time.Now()
				track.add("clockwork.RunUntil", ph, uint64(next), ta, tb)
				track.add("clockwork.SubmitRequestSink", ph, uint64(next), tb, tc)
			}
			if err != nil {
				return nil, fmt.Errorf("submit %d: %w", next, err)
			}
		}
		ta := time.Now()
		sys.RunUntil(ends[p])
		track.add("clockwork.RunUntil", ph, 0, ta, time.Now())
		steps[p] = sys.EngineSteps() - step0
		meters[p] = m.stop()
		track.end(ph)
		if p == phaseWarm {
			track.end(setup)
			r.Setup = time.Since(t0)
		}
		host = hostSpeed()
		phaseHost[p] = (before + host) / 2
		r.hosts = append(r.hosts, host)
	}
	track.end(root)

	// Off the clock: fold outcomes, hash them, look for duplicates.
	r.Warm = sent[phaseWarm]
	if got := uint64(len(sinks[phaseWarm].log)); got != r.Warm {
		r.problemf("warm-up: sent %d, completed %d", r.Warm, got)
	}
	r.Lo.tally(sent[phaseLo], sinks[phaseLo].log, sp.SLO, false)
	r.Hi.tally(sent[phaseHi], sinks[phaseHi].log, sp.SLO, false)
	r.SetupHost = phaseHost[phaseWarm]
	r.Lo.use, r.Lo.Host, r.Lo.Steps, r.Lo.Virtual = meters[phaseLo], phaseHost[phaseLo], steps[phaseLo], sp.Lo
	r.Hi.use, r.Hi.Host, r.Hi.Steps, r.Hi.Virtual = meters[phaseHi], phaseHost[phaseHi], steps[phaseHi], sp.Hi+sp.Drain
	r.checkConservation("lo", &r.Lo)
	r.checkConservation("hi", &r.Hi)

	h := sha256.New()
	var ids []uint64
	var buf [17]byte
	for _, s := range sinks {
		for i := range s.log {
			o := &s.log[i]
			binary.LittleEndian.PutUint64(buf[0:], o.id)
			binary.LittleEndian.PutUint64(buf[8:], uint64(o.virt))
			buf[16] = o.flags & flagSuccess
			h.Write(buf[:])
			ids = append(ids, o.id)
		}
	}
	r.Hash = hex.EncodeToString(h.Sum(nil))
	r.Dups = countDuplicates(ids)

	if tr != nil {
		spans := tr.log.all()
		tot := selfTimes(spans, setup)
		r.layer["clockwork.new_ms"] = tot["clockwork.New"].Total.Seconds() * 1e3
		r.layer["clockwork.register_us_per_model"] = tot["clockwork.RegisterModel"].Total.Seconds() * 1e6 / float64(sp.Models)
		// Host time inside RunUntil per engine event, with the submit
		// calls' own spans left out: hi over lo is the super-linearity
		// signal (the scheduler's per-event work growing with load).
		lo, hi := selfTimes(spans, phaseSpan[phaseLo]), selfTimes(spans, phaseSpan[phaseHi])
		r.layer["clockwork.run_ns_per_event_lo"] = float64(lo["clockwork.RunUntil"].Total.Nanoseconds()) / float64(steps[phaseLo])
		r.layer["clockwork.run_ns_per_event_hi"] = float64(hi["clockwork.RunUntil"].Total.Nanoseconds()) / float64(steps[phaseHi])
		sub := lo["clockwork.SubmitRequestSink"].Total + hi["clockwork.SubmitRequestSink"].Total
		r.layer["clockwork.submit_ns_per_req"] = float64(sub.Nanoseconds()) / float64(sent[phaseLo]+sent[phaseHi])
		flightLayer(r.layer, flight, sp.Warm+sp.Lo, r.Warm+r.Lo.Sent+r.Hi.Sent)
	}
	return r, nil
}
