// Package simclock provides virtual time and a deterministic
// discrete-event engine. Everything in this repository that "takes time"
// — GPU kernel execution, PCIe transfers, network hops, workload
// inter-arrival gaps — is expressed as events on this engine, so an
// 8-hour serving experiment replays in seconds and (given a fixed RNG
// seed) produces byte-identical results. Measured latencies can never be
// polluted by Go GC pauses or host scheduling, which is exactly the
// hazard the reproduction notes call out for a Go port of Clockwork.
// Driver is the one place wall time enters: it paces an engine against
// the wall clock so the same system can serve live traffic.
package simclock
