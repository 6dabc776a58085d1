// Package baseline implements the reactive, best-effort model serving
// policies Clockwork is compared against in §6.1: a Clipper-like system
// and an INFaaS-like system. Both run on the same simulated substrate as
// Clockwork so that Fig 5 isolates the effect of the *policy*:
//
//   - Neither performs admission control: the SLO is a soft, reactive
//     target and requests execute even after their deadline has passed.
//   - Placement is static/reactive rather than globally planned.
//   - Batching adapts by feedback (AIMD / reactive variant selection)
//     rather than by deadline arithmetic.
//
// The Clipper baseline additionally executes kernels concurrently
// (thread-pool per model container), inheriting the hardware scheduler's
// latency variability (Fig 2b) — its policy registers with
// BestEffortWorkers: true.
//
// Both register themselves in the policy registry (names "clipper" and
// "infaas") from init, so clockwork.New(Config{Policy: ...}) can run
// them without this package being imported explicitly anywhere else.
package baseline
