// Package core implements Clockwork's control plane: the centralized
// controller of the paper (§4.5, §5.3), its scheduler (Appendix B),
// and the placement groups that confine each model's LOADs to a slice
// of the GPUs. All
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
//  2. Admit. On arrival the Controller mints a request ID, derives
//     the internal deadline from the SLO, enqueues the request on its
//     model's queue, arms admission control's last-chance timer, and
//     hands it to the Scheduler.
//  3. Schedule. The scheduler keeps every GPU executor supplied with
//     at most Lookahead of predicted work: INFER strategies picked
//     from per-GPU strategy heaps, LOADs by Appendix B demand
//     priority among the load candidates (see index.go).
//  4. Execute. Actions travel to the worker, run (or get rejected if
//     their window closed), and results return to HandleResult,
//     which updates mirrors, feeds the predictor, and answers the
//     batch's requests.
//  5. Respond. The response crosses the client link back; the cluster
//     stamps the client-observed latency on the Result, counts it in
//     Metrics (one Outcomes ledger each globally, per model and per
//     tenant) and hands it to the submission's
//     ResultSink: a pooled serving-path sink, a Handle, or a
//     ResultFunc.
//
// # Placement groups
//
// ClusterConfig.Shards = N splits the one controller's GPUs into N
// placement groups — a worker's GPUs join group (worker ID mod N) — and
// puts each model in group (FNV-1a of its name mod N). A model is
// loaded onto GPUs of its group only (group.go), unless every GPU of the
// group is drained or failed, so each group's page caches hold a stable
// slice of the models. N = 1 is the paper's
// controller, bit-identical to it (goldens in internal/experiments
// enforce this). Worker RNG streams derive from worker IDs, so a worker
// behaves the same whatever N is.
package core
