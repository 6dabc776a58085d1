// Package experiments is the public face of the paper-reproduction
// experiment harness: every table and figure of the evaluation (§6) as
// a typed, parameterisable, deterministic experiment. It re-exports the
// internal harness so commands and external tooling can drive the full
// catalogue through a stable import path ("clockwork/experiments")
// without reaching into clockwork/internal.
//
// Each experiment has a Config with paper-faithful defaults plus
// Scale/Duration knobs, and returns a typed result whose String()
// prints the same rows/series the paper reports. Independent sweep
// cells fan out across cores; output order (and content, for equal
// seeds) is identical to a serial run.
package experiments

import (
	"clockwork/internal/experiments"
)

// System names accepted by the comparison experiments (policy registry
// names; see clockwork.Policies).
const (
	SystemClockwork = experiments.SystemClockwork
	SystemClipper   = experiments.SystemClipper
	SystemINFaaS    = experiments.SystemINFaaS
)

// Systems lists the three systems of Fig 5.
var Systems = experiments.Systems

// Configs and results, per figure.
type (
	// Fig2aConfig / Fig2aResult: isolated serial inference latency.
	Fig2aConfig = experiments.Fig2aConfig
	Fig2aResult = experiments.Fig2aResult
	// Fig2bConfig / Fig2bResult: concurrent-execution tail blow-up.
	Fig2bConfig = experiments.Fig2bConfig
	Fig2bResult = experiments.Fig2bResult
	// Fig5Config / Fig5Result: the three-system goodput/latency sweep.
	Fig5Config = experiments.Fig5Config
	Fig5Result = experiments.Fig5Result
	// Fig6Config / Fig6Result: thousands of models on one worker.
	Fig6Config = experiments.Fig6Config
	Fig6Result = experiments.Fig6Result
	// Fig7Config / Fig7Result: how low can the SLO go.
	Fig7Config = experiments.Fig7Config
	Fig7Result = experiments.Fig7Result
	// Fig7IsoConfig / Fig7IsoResult: LS/BC isolation.
	Fig7IsoConfig = experiments.Fig7IsoConfig
	Fig7IsoResult = experiments.Fig7IsoResult
	// Fig8Config / Fig8Result: the MAF trace replay.
	Fig8Config = experiments.Fig8Config
	Fig8Result = experiments.Fig8Result
	// Fig9Result: controller prediction-error telemetry.
	Fig9Result = experiments.Fig9Result
	// SLOScaleConfig / SLOScaleResult: the §6.5 tighter-SLOs-at-scale
	// table.
	SLOScaleConfig = experiments.SLOScaleConfig
	SLOScaleResult = experiments.SLOScaleResult
	// ScaleConfig / ScaleResult: the control-plane scale scenario — the
	// same ≥1M-request, ≥16k-model workload replayed over 1/4/16
	// scheduler shards.
	ScaleConfig = experiments.ScaleConfig
	ScaleResult = experiments.ScaleResult
	// AblationResult / PagingResult: DESIGN.md ablations.
	AblationResult = experiments.AblationResult
	PagingResult   = experiments.PagingResult
)

// Runners, per figure.
var (
	RunFig2a              = experiments.RunFig2a
	RunFig2b              = experiments.RunFig2b
	RunFig5               = experiments.RunFig5
	RunFig6               = experiments.RunFig6
	RunFig7               = experiments.RunFig7
	RunFig7Isolation      = experiments.RunFig7Isolation
	RunFig8               = experiments.RunFig8
	RunFig9               = experiments.RunFig9
	RunSLOScale           = experiments.RunSLOScale
	RunScale              = experiments.RunScale
	RunAblationLookahead  = experiments.RunAblationLookahead
	RunAblationPredictor  = experiments.RunAblationPredictor
	RunAblationLoadPolicy = experiments.RunAblationLoadPolicy
	RunAblationPaging     = experiments.RunAblationPaging
)

// CLIFlags carries command-line knobs into the catalogue; zero values
// select each experiment's defaults.
type CLIFlags = experiments.CLIFlags

// CLIExperiments lists the names Render accepts, in "all" render order.
var CLIExperiments = experiments.CLIExperiments

// Render produces one experiment's full printed output ("all" runs the
// whole catalogue concurrently and prints in catalogue order). Equal
// flags give byte-identical output.
var Render = experiments.Render
