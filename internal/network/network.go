package network

import (
	"fmt"
	"time"

	"clockwork/internal/rng"
	"clockwork/internal/simclock"
)

// DefaultBandwidth is 10 Gb/s in bytes/second.
const DefaultBandwidth = 10.0 * 1000 * 1000 * 1000 / 8

// DefaultLatency is the one-way propagation delay within the cluster.
const DefaultLatency = 50 * time.Microsecond

// Link is a directional point-to-point link. Messages serialise FIFO at
// the link bandwidth, then arrive after the propagation latency.
type Link struct {
	eng *simclock.Engine

	// Latency is the one-way propagation delay.
	Latency time.Duration
	// BytesPerSecond is the serialisation bandwidth; 0 means infinite.
	BytesPerSecond float64
	// Jitter, if non-nil, adds a random extra delay of up to JitterMax
	// with probability JitterProb per message (network spikes, §7).
	Jitter     *rng.Stream
	JitterProb float64
	JitterMax  time.Duration

	busyUntil simclock.Time
	sent      uint64
	bytesSent uint64
}

// NewLink returns a link with default cluster calibration.
func NewLink(eng *simclock.Engine) *Link {
	return &Link{eng: eng, Latency: DefaultLatency, BytesPerSecond: DefaultBandwidth}
}

// SendRun transmits a message of the given size and runs r at the
// receiver when it arrives. Zero-byte messages still pay propagation
// latency (request metadata). Per-request hops pass a receiver that
// already exists, so nothing is allocated; a closure goes through
// simclock.Func.
func (l *Link) SendRun(bytes int64, r simclock.Runner) {
	if r == nil {
		panic("network: nil receiver")
	}
	l.eng.ScheduleRun(l.arrivalAt(bytes), r)
}

// arrivalAt advances the link's serialisation horizon for a message of
// the given size and returns the instant it is delivered.
func (l *Link) arrivalAt(bytes int64) simclock.Time {
	if bytes < 0 {
		panic(fmt.Sprintf("network: negative message size %d", bytes))
	}
	var ser time.Duration
	if l.BytesPerSecond > 0 {
		ser = time.Duration(float64(bytes) / l.BytesPerSecond * float64(time.Second))
	}
	start := simclock.Max(l.eng.Now(), l.busyUntil)
	l.busyUntil = start.Add(ser)
	delay := l.Latency
	if l.Jitter != nil && l.JitterProb > 0 && l.Jitter.Bernoulli(l.JitterProb) {
		delay += time.Duration(l.Jitter.Float64() * float64(l.JitterMax))
	}
	l.sent++
	l.bytesSent += uint64(bytes)
	return l.busyUntil.Add(delay)
}

// Sent returns the number of messages transmitted.
func (l *Link) Sent() uint64 { return l.sent }

// BytesSent returns the total payload bytes transmitted.
func (l *Link) BytesSent() uint64 { return l.bytesSent }

// QueueDelay returns the serialisation backlog a message sent now would
// experience before its first byte leaves.
func (l *Link) QueueDelay() time.Duration {
	now := l.eng.Now()
	if l.busyUntil <= now {
		return 0
	}
	return l.busyUntil.Sub(now)
}

// Duplex is a bidirectional connection: a pair of independent links.
type Duplex struct {
	AtoB *Link
	BtoA *Link
}

// NewDuplex returns a connection with default calibration both ways.
func NewDuplex(eng *simclock.Engine) *Duplex {
	return &Duplex{AtoB: NewLink(eng), BtoA: NewLink(eng)}
}
