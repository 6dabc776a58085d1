// Package workload generates the load patterns of the paper's
// evaluation: closed-loop clients (§6.1, §6.4), open-loop Poisson
// arrivals (§6.3, OpenLoop), and a synthetic
// Microsoft-Azure-Functions-like trace (§6.5) with heavy, cold, bursty
// and periodic function workloads.
//
// Workload generators sit at the very top of the lifecycle: they draw
// arrival gaps and model choices from named rng streams and push
// requests into a cluster, pacing themselves on the virtual clock.
package workload
