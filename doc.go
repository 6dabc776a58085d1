// Package clockwork is a Go reproduction of "Serving DNNs like
// Clockwork: Performance Predictability from the Bottom Up" (Gujarati et
// al., OSDI 2020): a distributed model serving system that consolidates
// every performance-relevant choice in a central controller so that DNN
// inference's natural determinism survives all the way to the client,
// yielding tail latencies that track SLOs at the 99.99th+ percentile.
//
// The hardware substrate (GPU execution, PCIe transfers, cluster
// network) is simulated and calibrated against the paper's published
// profiles (Appendix A), and the whole system runs on a deterministic
// virtual clock: an 8-hour trace replays in seconds, bit-identically for
// a given seed. See ARCHITECTURE.md for the system's structure and
// request lifecycle, DESIGN.md for the substitution rationale, and
// EXPERIMENTS.md for paper-vs-measured results.
//
// # Quick start
//
//	sys, err := clockwork.New(clockwork.Config{Workers: 1, GPUsPerWorker: 1})
//	if err != nil {
//		log.Fatal(err)
//	}
//	sys.RegisterModel("my-resnet", "resnet50_v1b")
//	sys.SubmitRequest(clockwork.Request{
//		Model: "my-resnet",
//		SLO:   100 * time.Millisecond,
//	}, func(r clockwork.Result) {
//		fmt.Println(r.Success, r.Reason, r.Latency)
//	})
//	sys.RunFor(time.Second)
//
// Requests carry per-request options — Priority, Tenant, and a batch
// cap (MaxBatchSize) — and report typed outcomes: Result.Reason is a
// Reason enum (ReasonCancelled, ReasonRejected, ReasonTimeout, …), not
// a string. SubmitRequest returns a Handle for client-side inspection
// and best-effort cancellation; SubmitRequestSink is the handle-free
// form for callers that pool their per-request state. Both are adapters
// over one submission path.
//
// # Policies
//
// Serving policies are resolved by name through a registry. The paper's
// scheduler ("clockwork"), its ablation variant
// ("clockwork-oldest-load"), and the two §6.1 baselines ("clipper",
// "infaas") self-register; external schedulers plug in with
// RegisterPolicy without touching New. Unknown policy names make New
// return an error that lists everything registered.
//
// # Placement groups
//
// Config{Shards: N} splits the GPUs into N placement groups: a worker's
// GPUs join group (worker ID mod N), and each model is loaded only onto
// GPUs of group (a hash of its name mod N). The one controller still
// schedules everything; the groups only confine LOAD placement, so each
// group's page caches keep a stable slice of the models and cold starts
// fall. A group whose workers are all drained or failed has its models
// loaded onto any GPU until it has one again. Shards defaults to 1, the
// paper's controller. DemandSnapshot
// reports each group's queued demand against its GPUs.
//
// # Runtime control plane
//
// A running System can be reconfigured live: AddWorker scales out,
// DrainWorker stops scheduling onto a worker while in-flight work
// finishes, FailWorker simulates an abrupt worker loss, and
// UnregisterModel retires a model. ModelStats and TenantStats expose
// per-model and per-tenant goodput/latency/cold-start counters, and
// InjectDisturbance reproduces the paper's §4.3 external slowdowns.
//
// # Live serving
//
// StartLive paces the engine against the wall clock (at any speed
// multiple) so the same System serves real traffic: concurrent
// goroutines funnel work onto the engine goroutine with Live.Inject or
// Live.Do, block for completion with Handle.Wait (or SubmitRequest's
// onDone callback, which fires on the engine goroutine), and
// stop the clock with Live.Stop. Package clockwork/serve builds the
// network front door on these primitives — an HTTP/JSON server
// (cmd/clockworkd), a typed client, and a wall-clock load generator
// (cmd/clockwork-loadgen). The virtual-clock experiment paths never
// touch wall time; see ARCHITECTURE.md, "Serving plane".
package clockwork
