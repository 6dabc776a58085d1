// Command clockwork regenerates the paper's tables and figures on the
// simulated cluster and prints their data, driving the experiment
// catalogue (clockwork/internal/experiments). Independent experiments
// and sweep cells fan out across cores; output is printed in a fixed
// order regardless of completion order, so a run's output is identical
// to a serial one.
//
// Examples:
//
//	clockwork -exp fig2a
//	clockwork -exp fig5 -dur 20s
//	clockwork -exp fig6 -models 3600 -minutes 60
//	clockwork -exp fig8 -minutes 60 -functions 17000 -copies 66 -workers 6
//	clockwork -exp sloscale
//	clockwork -exp scale -shards 1,4,16
//	clockwork -exp ablations
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"clockwork/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment: fig2a fig2b fig5 fig6 fig7 fig7iso fig8 fig9 sloscale scale ablations all")
		seed      = flag.Uint64("seed", 42, "experiment RNG seed")
		dur       = flag.Duration("dur", 0, "per-cell duration for fig5/ablations (0 = default)")
		minutes   = flag.Int("minutes", 0, "trace minutes for fig6/fig8/fig9/sloscale (0 = default)")
		models    = flag.Int("models", 0, "model count for fig6/fig7/scale (0 = default)")
		functions = flag.Int("functions", 0, "MAF function count for fig8/fig9/sloscale (0 = default)")
		copies    = flag.Int("copies", 0, "instances per zoo model for fig8/fig9/sloscale (0 = default)")
		workers   = flag.Int("workers", 0, "worker machines (0 = default)")
		gpus      = flag.Int("gpus", 0, "GPUs per worker (0 = default)")
		rate      = flag.Float64("rate", 0, "total rate for fig7/scale (0 = default)")
		rateScale = flag.Float64("ratescale", 0, "MAF trace rate multiplier (0 = default)")
		requests  = flag.Int("requests", 0, "total submissions per scale cell (0 = default)")
		shards    = flag.String("shards", "", "comma-separated placement-group counts (Config.Shards) for scale (empty = 1,4,16)")
	)
	flag.Parse()
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}

	out, err := experiments.Render(*exp, experiments.CLIFlags{
		Seed:      *seed,
		Dur:       time.Duration(*dur),
		Minutes:   *minutes,
		Models:    *models,
		Functions: *functions,
		Copies:    *copies,
		Workers:   *workers,
		GPUs:      *gpus,
		Rate:      *rate,
		RateScale: *rateScale,
		Requests:  *requests,
		Shards:    parseShards(*shards),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Print(out)
}

// parseShards turns "1,4,16" into placement-group cells; malformed entries
// are fatal rather than silently dropped.
func parseShards(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad -shards entry %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
