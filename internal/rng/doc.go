// Package rng provides deterministic, named random-number streams.
//
// Every stochastic element of an experiment (per-client arrival
// process, per-GPU timing noise, trace synthesis) draws from its own
// stream derived from (seed, name), so adding a new consumer never
// perturbs the draws seen by existing ones and whole experiments
// replay bit-identically.
//
// Stream names are chosen to be invariant over deployment shape:
// worker streams embed the worker ID ("w3.g1.exec"), never the
// placement group the worker's GPUs belong to, which is why any group
// count replays the same hardware behaviour as one group.
package rng
