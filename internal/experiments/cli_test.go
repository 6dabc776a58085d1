package experiments

import (
	"strings"
	"testing"
)

// TestRenderRejectsBadFlags checks that flags no experiment can run
// with come back as one error before any simulation starts. The scale
// case keeps the default 1M-request, 16-group sweep, so a cell that
// started would run for minutes and its 16-group cell would panic.
func TestRenderRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		exp  string
		f    CLIFlags
		want string
	}{
		{"scale groups exceed workers", "scale", CLIFlags{Workers: 8}, "16 placement groups need at least as many workers (have 8)"},
		{"unknown experiment", "fig99", CLIFlags{}, `unknown experiment "fig99"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := Render(tc.exp, tc.f)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Render(%q) error = %v, want it to contain %q", tc.exp, err, tc.want)
			}
			if out != "" {
				t.Fatalf("Render(%q) printed %q beside its error", tc.exp, out)
			}
		})
	}
}
