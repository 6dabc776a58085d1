package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA measures the benchmark against itself: the end-to-end set (all
// four workloads) is run n times per side by the same binary, the sides
// interleaved A B B A … so a slow spell on the host lands on both, each
// run in a fresh process. For every metric it prints both sides'
// quartiles, each side's spread (interquartile range over median — what
// the acceptance check computes) and the gap between the medians in the
// metric's worse direction, beside the bound BENCHMARK.json fixes. A
// benchmark that can be believed shows spreads under a third of the
// bound and gaps under the bound. Run i uses seed base+i on both sides.
func runAA(man *manifest, n int, base uint64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct {
		side           int
		workload, name string
	}
	values := map[key][]float64{}
	for i := 0; i < n; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			for _, w := range workloads {
				cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatUint(base+uint64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s run %d side %c: %w\n%s", w, i, 'A'+side, err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					return fmt.Errorf("%s run %d: bad result line: %w", w, i, err)
				}
				for name, m := range rep.Metrics {
					values[key{side, w, name}] = append(values[key{side, w, name}], m.Value)
				}
				fmt.Fprintf(os.Stderr, "bench: aa run %d/%d side %c %s done\n", i+1, n, 'A'+side, w)
			}
		}
	}

	fmt.Printf("A/A table: %d runs per side, seeds %d..%d, %g s measured per run\n", n, base, base+uint64(n)-1, seconds)
	fmt.Println("| workload | metric | A q1 / median / q3 | B q1 / median / q3 | spread A | spread B | gap B vs A | bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, w := range workloads {
		for _, d := range man.EndToEnd {
			aq1, amed, aq3 := quartiles(values[key{0, w, d.Name}])
			bq1, bmed, bq3 := quartiles(values[key{1, w, d.Name}])
			gap := (bmed - amed) / amed // positive = B worse, for a lower-is-better metric
			if d.Better == "higher" {
				gap = -gap
			}
			fmt.Printf("| %s | %s (%s) | %.6g / %.6g / %.6g | %.6g / %.6g / %.6g | %.4f | %.4f | %+.4f | %g |\n",
				w, d.Name, d.Unit, aq1, amed, aq3, bq1, bmed, bq3, (aq3-aq1)/amed, (bq3-bq1)/bmed, gap, d.Bound)
		}
	}
	return nil
}
