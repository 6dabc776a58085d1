//go:build race

package serve

// Reduced end-to-end volume under the race detector; see
// norace_test.go.
const e2eRequests = 12_000

const raceEnabled = true
