package experiments

import (
	"fmt"
	"strings"
	"time"

	"clockwork"
	"clockwork/internal/core"
)

// System names accepted by the comparison experiments. They are policy
// names; see clockwork.Policies.
const (
	SystemClockwork = string(clockwork.PolicyClockwork)
	SystemClipper   = string(clockwork.PolicyClipper)
	SystemINFaaS    = string(clockwork.PolicyINFaaS)
)

// Systems lists the three systems of Fig 5.
var Systems = []string{SystemClockwork, SystemClipper, SystemINFaaS}

// newSystemCluster builds a system through clockwork.New, the one
// construction path, and returns its cluster for harnesses that read
// raw telemetry.
func newSystemCluster(cfg clockwork.Config) *core.Cluster {
	sys, err := clockwork.New(cfg)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return core.ClusterOf(sys)
}

// fmtMS renders a duration as milliseconds with two decimals.
func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

// table renders rows of columns with aligned padding.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
