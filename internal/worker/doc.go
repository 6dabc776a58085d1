// Package worker implements Clockwork's predictable DNN worker (§4.4,
// §5.2). A worker owns one or more GPUs; for each GPU it runs a dedicated
// executor per action type that dequeues actions chronologically by
// earliest start time, waits until the window opens, rejects actions
// whose window has closed, and otherwise executes exactly as instructed —
// no work-conserving improvisation, so the controller's predictions stay
// valid even when something slips.
//
// In the request lifecycle workers are the data plane: they never make
// policy. Model weights for every registered model sit in host RAM
// (§5.1), whatever GPUs the model's placement group holds.
package worker
