package experiments

import (
	"fmt"
	"strings"
	"time"

	"clockwork/internal/runner"
)

// CLIFlags carries the command-line knobs of `cmd/clockwork` into the
// experiment catalogue; zero values select each experiment's defaults.
type CLIFlags struct {
	Seed      uint64
	Dur       time.Duration // per-cell duration for fig5/ablations
	Minutes   int           // trace minutes for fig6/fig8/fig9/sloscale
	Models    int           // model count for fig6/fig7/scale
	Functions int           // MAF function count for fig8/fig9/sloscale
	Copies    int           // instances per zoo model for fig8/fig9/sloscale
	Workers   int
	GPUs      int
	Rate      float64 // total rate for fig7/scale
	RateScale float64 // MAF trace rate multiplier

	// Scale-scenario knobs (the 1/4/16 placement-group comparison).
	Requests int   // total submissions per cell
	Shards   []int // placement-group counts to compare
}

// CLIExperiments lists the catalogue names Render accepts, in render
// order for "all".
var CLIExperiments = []string{
	"fig2a", "fig2b", "fig5", "fig6", "fig7", "fig7iso", "fig8", "fig9", "sloscale", "scale", "autoscale", "ablations",
}

// Render produces one experiment's full printed output (or "all" of
// them, fanned out across cores and printed in catalogue order). Every
// experiment is a pure function of the flags, so equal flags give
// byte-identical output.
func Render(name string, f CLIFlags) (string, error) {
	switch name {
	case "fig2a":
		return fmt.Sprintln(RunFig2a(Fig2aConfig{Seed: f.Seed})), nil
	case "fig2b":
		return fmt.Sprintln(RunFig2b(Fig2bConfig{Seed: f.Seed, Duration: f.Dur})), nil
	case "fig5":
		return fmt.Sprintln(RunFig5(Fig5Config{
			Seed: f.Seed, Duration: f.Dur, Models: f.Models,
		})), nil
	case "fig6":
		cfg := Fig6Config{Seed: f.Seed, TotalModels: f.Models}
		if f.Minutes > 0 {
			cfg.Duration = time.Duration(f.Minutes) * time.Minute
		}
		return fmt.Sprintln(RunFig6(cfg)), nil
	case "fig7":
		sweep := []struct {
			n int
			r float64
		}{{12, 600}, {12, 1200}, {12, 2400}, {48, 600}, {48, 1200}, {48, 2400}}
		if f.Models > 0 || f.Rate > 0 {
			sweep = sweep[:1] // single custom configuration
		}
		outs := runner.Map(sweep, func(nr struct {
			n int
			r float64
		}) string {
			cfg := Fig7Config{Seed: f.Seed, Models: nr.n, TotalRate: nr.r, Workers: f.Workers}
			if f.Models > 0 {
				cfg.Models = f.Models
			}
			if f.Rate > 0 {
				cfg.TotalRate = f.Rate
			}
			return fmt.Sprintln(RunFig7(cfg))
		})
		return strings.Join(outs, ""), nil
	case "fig7iso":
		sweep := []struct{ m, c int }{{0, 0}, {12, 16}, {48, 4}}
		outs := runner.Map(sweep, func(mc struct{ m, c int }) string {
			return fmt.Sprintln(RunFig7Isolation(Fig7IsoConfig{
				Seed: f.Seed, BCModels: mc.m, BCConc: mc.c, Workers: f.Workers,
			}))
		})
		return strings.Join(outs, ""), nil
	case "fig8":
		return fmt.Sprintln(RunFig8(f.fig8Config())), nil
	case "fig9":
		return fmt.Sprintln(RunFig9(f.fig8Config())), nil
	case "sloscale":
		return fmt.Sprintln(RunSLOScale(SLOScaleConfig{
			Seed: f.Seed, Workers: f.Workers, GPUsPerWorker: f.GPUs,
			Functions: f.Functions, Minutes: f.Minutes, Copies: f.Copies,
			RateScale: f.RateScale,
		})), nil
	case "scale":
		cfg := ScaleConfig{
			Seed: f.Seed, Workers: f.Workers, GPUsPerWorker: f.GPUs,
			Models: f.Models, Requests: f.Requests, Rate: f.Rate,
			Shards: f.Shards,
		}.withDefaults()
		if err := cfg.check(); err != nil {
			return "", err
		}
		return fmt.Sprintln(RunScale(cfg)), nil
	case "autoscale":
		outs := runner.Map([]string{"diurnal", "flash"}, func(fam string) string {
			return fmt.Sprintln(RunAutoscale(AutoscaleConfig{
				Family: fam, Seed: f.Seed, Duration: f.Dur, Models: f.Models,
			}))
		})
		return strings.Join(outs, ""), nil
	case "ablations":
		outs := runner.Run([]func() string{
			func() string { return fmt.Sprintln(RunAblationLookahead(f.Dur, f.Seed)) },
			func() string { return fmt.Sprintln(RunAblationPredictor(f.Dur, f.Seed)) },
			func() string { return fmt.Sprintln(RunAblationLoadPolicy(f.Dur, f.Seed)) },
			func() string { return fmt.Sprintln(RunAblationPaging(0, f.Seed)) },
		})
		return strings.Join(outs, ""), nil
	case "all":
		type rendered struct {
			out string
			err error
		}
		outs := runner.Map(CLIExperiments, func(n string) rendered {
			out, err := Render(n, f)
			return rendered{out: out, err: err}
		})
		var b strings.Builder
		var firstErr error
		for _, r := range outs {
			b.WriteString(r.out)
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
		}
		return b.String(), firstErr
	default:
		return "", fmt.Errorf("unknown experiment %q (have %s, all)",
			name, strings.Join(CLIExperiments, ", "))
	}
}

func (f CLIFlags) fig8Config() Fig8Config {
	return Fig8Config{
		Seed: f.Seed, Workers: f.Workers, GPUsPerWorker: f.GPUs,
		Copies: f.Copies, Functions: f.Functions, Minutes: f.Minutes,
		RateScale: f.RateScale,
	}
}
