// Package journal is the durable control plane: a snapshot of
// control-plane state plus an append-only log of every externally-
// sourced injection, giving a live clockwork daemon crash recovery and
// whole-system deterministic record/replay.
//
// The design leans on the serving plane's single determinism boundary
// (see ARCHITECTURE.md, "Serving plane"): everything below Live.Inject
// is the same deterministic event machinery the simulations run, so a
// single-engine live system is a pure function of (seed, the sequence
// of injected operations, each operation's virtual instant and engine
// step position). The journal captures exactly that triple for every
// entry the serve layer makes that can move the engine: an inference is
// an engine event, stamped with its step; anything else runs under
// Live.Do, a pause between steps, stamped with the steps run before it.
// A control-plane mutation (Register, AddWorker, DrainWorker,
// FailWorker, Autoscale) is an Op value; Apply records and
// applies it: the serve layer calls it with the Recorder, replay and
// recovery with none, so live and replayed ops cannot drift apart. A
// decoded Record carries its Op in Record.Op, so each op is declared
// once, as the value Apply takes. A read takes no step and is not
// recorded. The Recorder appends the rest: inference submissions,
// snapshot markers, and an acknowledgement record per completed
// request, appended on the engine turn before the response can reach
// the client.
//
// Three consumers read the log back:
//
//   - Recovery (Load + Rebuild): restore the latest snapshot — or the
//     genesis state — and Apply the control ops recorded after it, so
//     a daemon bounce loses no registered model and no acknowledged
//     request.
//   - Deterministic replay (ReplayEpoch, cmd/clockwork-replay): rebuild
//     the genesis system and re-execute every recorded injection at its
//     recorded step and instant through the simulator. The replayed
//     completion stream hashes identically to the recorded one, turning
//     any production incident into a reproducible regression test.
//   - Observability (Recorder.Status): segment/byte/fsync-lag gauges
//     for the admin plane and /metrics.
//
// On disk a journal directory holds numbered epochs — one per daemon
// generation, because recovery rebuilds a fresh engine whose step
// counter restarts, which resets the replay alignment. Each epoch is a
// chain of segmented write-ahead files of length-prefixed CRC32C
// frames (rotated at a size bound, prunable back to the latest
// snapshot) plus snapshot files. Every append reaches the kernel in
// one write(2), so a SIGKILL — the crash mode a process can cause —
// never tears a frame; the configurable fsync policy only governs
// machine-crash durability, and the reader truncates a torn tail back
// to the last whole frame either way.
//
// Records of the sharded control plane this package outlived still
// decode: a type-8 Rebalance record and an Autoscale record with its
// rebalance bit set apply as nothing, and the shard slots of inference
// and model-state records are written as 0 and ignored on read. But an epoch that
// such a build recorded with -shards > 1 no longer replays to MATCH:
// its genesis now rebuilds one controller with placement groups, which
// numbers requests and places models differently from the N
// controllers that served it. The committed fixtures were all recorded
// at -shards 1 and still match.
package journal
