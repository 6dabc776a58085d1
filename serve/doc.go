// Package serve is the live serving plane: it turns a virtual-clock
// clockwork.System into a network service that real clients hit over
// HTTP, the role the paper's §6 deployment plays in front of its
// workers.
//
// Four pieces, front to back:
//
//   - Server: an HTTP/JSON front end (POST /v1/infer, model
//     registration, the worker/shard admin plane, GET /metrics in
//     Prometheus text format) over the single-threaded engine, through
//     clockwork.Live. Both transports share one per-request state
//     machine — admit into one bounded window (Options.MaxInFlight;
//     beyond it HTTP answers 429, the stream a typed overloaded frame),
//     inject onto the owning engine, exactly one outcome, release — and
//     differ only in decoding a request and writing its outcome out.
//     Every other engine-side call runs under the Live.Do barrier, and
//     graceful Shutdown drains in-flight requests before stopping the
//     clock.
//   - The stream transport (Server.ServeStream + StreamClient, wire
//     codec in serve/stream): the fast path — length-prefixed binary
//     frames over TCP, many in-flight requests multiplexed per
//     connection and correlated by ID, every batch of frames readable
//     in one scheduling quantum submitted to the engine as a single
//     injection, and SubmitBatch pipelining whole batches through one
//     write. Several-fold cheaper per request than HTTP/JSON.
//   - Client: a typed Go client mirroring the in-process
//     Request/Result API, including the typed error taxonomy
//     (errors.Is against clockwork.ErrUnknownModel etc. works
//     unchanged over either wire).
//   - RunLoad: an open/closed-loop wall-clock load generator reusing
//     the workload package's Poisson arrival process, driving either
//     transport (LoadConfig.Transport), reporting goodput,
//     SLO-violation rate, shed rate and wall/virtual latency tails.
//
// The determinism boundary sits at the Server: below it the engine
// processes events exactly as in simulation; the only nondeterminism a
// live system sees is the wall-clock arrival timing of injected work.
// The virtual-clock experiment paths never touch this package. See
// ARCHITECTURE.md, "Serving plane".
package serve
