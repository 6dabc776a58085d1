// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) on the simulated substrate, plus the
// repo-grown scenarios that go beyond the paper: the §6.5
// tighter-SLOs table ("sloscale") and the control-plane scale
// comparison ("scale", ≥1M requests over 1/4/16 placement groups).
//
// Each experiment has a Config with paper-faithful defaults plus
// Scale/Duration knobs (the full-size runs replay hours of trace;
// benchmarks use scaled-down variants and EXPERIMENTS.md records
// which scale produced which numbers), and returns a typed result
// whose String() prints the same rows/series the paper reports.
// Every experiment is a pure function of its config: equal configs
// give byte-identical output, enforced by golden-hash tests
// (golden_test.go) that also pin one placement group to the single
// controller's exact behaviour from before sharding existed.
package experiments
