package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"clockwork"
)

// outcome is what the load generator keeps of one response, written
// into a preallocated log so the measured loop allocates nothing.
type outcome struct {
	id    uint64 // controller-assigned request ID (0: no response)
	wall  int64  // ns of wall round trip (live workloads)
	virt  int64  // ns of virtual client-observed latency
	batch int32
	flags uint8
	// reason is the clockwork.Reason of a failed inference.
	reason uint8
}

const (
	flagSuccess uint8 = 1 << iota // the inference executed and returned
	flagCold                      // the model was not GPU-resident on arrival
	flagError                     // transport or API error: no outcome came back
	flagShed                      // the server's admission window refused it
)

func outcomeOf(res clockwork.Result) outcome {
	o := outcome{id: res.RequestID, virt: int64(res.Latency), batch: int32(res.Batch), reason: uint8(res.Reason)}
	if res.Success {
		o.flags |= flagSuccess
	}
	if res.ColdStart {
		o.flags |= flagCold
	}
	return o
}

// phaseStats is one load point (lo or hi) of one round, as seen from the
// load generator plus the counters read at the phase's two boundaries.
type phaseStats struct {
	// lat holds µs of wall round trip on live workloads and of virtual
	// client-observed latency on the simulator workload.
	lat latSet
	// vlat holds µs of virtual latency of every executed inference —
	// the paper's tail, whatever the transport.
	vlat []float64

	Sent, Completed, Errors, Shed uint64
	// OK counts successes within SLO; the rest of Sent are misses.
	OK                           uint64
	Cold, BatchSum, Executed     uint64
	Cancelled, Rejected, SLOMiss uint64
	use                          usage
	// Host is the host clock over the phase: the mean of the chase rates
	// read right before and right after it.
	Host                         float64
	Steps                        uint64        // engine events executed during the phase
	VirtualStart, Virtual        time.Duration // virtual instant the phase began at, and how much elapsed
	wire                         wireSnapshot
	journalBytes, journalRecords uint64
}

// tally folds a log of outcomes into the phase. sent is the generator's
// own count of requests it issued: any it holds no outcome for are lost,
// and miss every latency limit like the failures do. slo is the
// objective in virtual time; wallLat selects which clock feeds lat.
func (p *phaseStats) tally(sent uint64, log []outcome, slo time.Duration, wallLat bool) {
	p.Sent += sent
	if lost := int(sent) - len(log); lost > 0 {
		p.lat.missed += lost
	}
	for i := range log {
		o := &log[i]
		switch {
		case o.flags&flagShed != 0:
			p.Shed++
			p.lat.missed++
			continue
		case o.flags&flagError != 0:
			p.Errors++
			p.lat.missed++
			continue
		}
		p.Completed++
		if o.flags&flagCold != 0 {
			p.Cold++
		}
		if o.flags&flagSuccess == 0 {
			switch clockwork.Reason(o.reason) {
			case clockwork.ReasonCancelled:
				p.Cancelled++
			case clockwork.ReasonRejected:
				p.Rejected++
			}
			p.lat.missed++
			continue
		}
		p.Executed++
		p.BatchSum += uint64(o.batch)
		p.vlat = append(p.vlat, float64(o.virt)/1e3)
		if time.Duration(o.virt) > slo {
			p.SLOMiss++
			p.lat.missed++
			continue
		}
		p.OK++
		if wallLat {
			p.lat.ok = append(p.lat.ok, float64(o.wall)/1e3)
		} else {
			p.lat.ok = append(p.lat.ok, float64(o.virt)/1e3)
		}
	}
}

// hostScale turns a time measured during the phase into a time at
// reference host speed (see the host clock in stats.go).
func (p *phaseStats) hostScale() float64 { return hostScale(p.Host) }

func hostScale(host float64) float64 { return math.Sqrt(host / refHostSpeed) }

// goodput is within-SLO successes per wall second of the phase, at
// reference host speed.
func (p *phaseStats) goodput() float64 {
	return float64(p.OK) / (p.use.Wall.Seconds() * p.hostScale())
}

// cpuPerReq is µs of process CPU per completed request, at reference host
// speed.
func (p *phaseStats) cpuPerReq() float64 {
	return p.use.CPU.Seconds() * 1e6 * p.hostScale() / float64(p.Completed)
}

// roundResult is one round: a freshly built system taken through
// set-up, warm-up, the lo point and the hi point.
type roundResult struct {
	// Setup is the wall time of set-up; SetupHost the host clock over it.
	Setup     time.Duration
	SetupHost float64
	// WallLat says lat holds wall-clock latencies (live workloads), which
	// are reported at reference host speed; virtual ones are exact.
	WallLat bool
	Warm    uint64 // warm-up requests sent (all must complete)
	Lo, Hi  phaseStats
	Hash    string // sim: SHA-256 over (id, success, latency) in completion order
	Dups    uint64 // responses carrying an already-seen request ID
	// hosts is every host-clock reading taken during the round.
	hosts    []float64
	problems []string
	// layer holds the per-layer figures only a traced round can take.
	layer map[string]float64
}

// latency is a phase's p-th latency percentile: a wall-clock one is
// brought to reference host speed, a virtual one is exact as it is.
func (r *roundResult) latency(ph *phaseStats, p float64) float64 {
	if r.WallLat {
		return ph.lat.pct(p) * ph.hostScale()
	}
	return ph.lat.pct(p)
}

func (r *roundResult) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// countDuplicates sorts ids in place and counts repeats of a non-zero ID.
func countDuplicates(ids []uint64) uint64 {
	slices.Sort(ids)
	var dups uint64
	for i := 1; i < len(ids); i++ {
		if ids[i] != 0 && ids[i] == ids[i-1] {
			dups++
		}
	}
	return dups
}

// checkConservation records a problem unless every request sent in the
// phase is accounted for as completed, errored or shed.
func (r *roundResult) checkConservation(name string, p *phaseStats) {
	if p.Sent != p.Completed+p.Errors+p.Shed {
		r.problemf("%s: sent %d != completed %d + errors %d + shed %d", name, p.Sent, p.Completed, p.Errors, p.Shed)
	}
}
