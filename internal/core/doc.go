// Package core implements Clockwork's control plane: the centralized
// controller of the paper (§4.5, §5.3), its scheduler (Appendix B),
// and the sharded extension that partitions both for scale. All
// performance-relevant choices — admission, batching, placement, cache
// management — are made here; workers execute exactly what they are
// told.
//
// # Request lifecycle
//
// A request traverses the package in five steps (the full picture,
// including the packages on either side, is in ARCHITECTURE.md):
//
//  1. Submit. Cluster.Submit, the one submission path, validates the
//     spec, resolves the model's name to its ID, and puts the input on
//     the client network link.
//  2. Shard. On arrival the owning Controller mints a request ID
//     (from the shard's disjoint ID progression), derives the
//     internal deadline from the SLO, enqueues the request on its
//     model's queue, arms admission control's last-chance timer, and
//     hands it to the shard's Scheduler.
//  3. Schedule. The scheduler keeps every GPU executor supplied with
//     at most Lookahead of predicted work: INFER strategies picked
//     from per-GPU strategy heaps, LOADs by Appendix B demand
//     priority among the load candidates (see index.go).
//  4. Execute. Actions travel to the worker, run (or get rejected if
//     their window closed), and results return to HandleResult,
//     which updates mirrors, feeds the predictor, and answers the
//     batch's requests.
//  5. Respond. The response crosses the client link back; the cluster
//     records client-observed latency into Metrics (global,
//     per-model, per-tenant and per-shard bins) and hands the outcome
//     to the submission's ResponseSink: a pooled serving-path sink, a
//     Handle, or a ResponseFunc.
//
// # Sharding
//
// ClusterConfig.Shards > 1 partitions the control plane into N
// controllers on the one event engine. Each shard owns a disjoint
// slice of workers (global worker ID mod N) — and therefore of GPUs —
// and a disjoint subset of models (consistent FNV hash of the name,
// mutated only by migration). Cross-shard state lives exclusively in
// the Cluster: the model→shard and worker→shard maps and the shared
// client-observed Metrics. A periodic rebalancer (rebalance.go)
// migrates models — queued requests included, losslessly — from hot
// shards to cold ones when demand skews; shard.go holds the
// extract/adopt primitives that make the move atomic on the virtual
// clock.
//
// Shards == 1 is bit-identical to the pre-shard centralized
// controller (goldens in internal/experiments enforce this), and
// determinism survives N > 1: shards share the deterministic engine,
// IDs stride so they never collide, worker RNG streams derive from
// worker IDs (not shard membership), and every rebalance decision
// breaks ties by shard index and model registration sequence.
package core
