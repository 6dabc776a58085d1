//go:build !race

package serve

// e2eRequests is the end-to-end acceptance volume: 100k requests
// through the full loopback HTTP path. Under the race detector the
// same path runs at a fraction of the speed, so race builds (and
// -short runs) use a reduced volume — the integrity invariants checked
// are identical.
const e2eRequests = 100_000

// raceEnabled reports a race-detector build, where allocation counts
// differ (sync.Pool drops puts at random).
const raceEnabled = false
