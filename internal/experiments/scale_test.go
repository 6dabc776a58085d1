package experiments

import (
	"strings"
	"testing"
)

// TestScaleShardComparison runs a scaled-down control-plane scale
// scenario (the CLI defaults are 1M requests / 16k models; see
// EXPERIMENTS.md for full-size numbers) and checks the cells are
// comparable: every cell completes the identical request budget, and
// service quality does not collapse when LOADs are confined to
// placement groups. (Every group completing work is
// core.TestPlacementGroups' to check.)
func TestScaleShardComparison(t *testing.T) {
	t.Parallel()
	cfg := ScaleConfig{
		Shards:        []int{1, 4},
		Models:        256,
		Requests:      12_000,
		Rate:          3_000,
		Workers:       8,
		GPUsPerWorker: 2,
		Seed:          1,
	}
	r := RunScale(cfg)
	if len(r.Cells) != 2 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	one, four := r.Cells[0], r.Cells[1]
	if one.Shards != 1 || four.Shards != 4 {
		t.Fatalf("cell order: %d, %d", one.Shards, four.Shards)
	}
	for _, c := range r.Cells {
		if c.Requests != uint64(cfg.Requests) {
			t.Fatalf("shards=%d completed %d of %d requests", c.Shards, c.Requests, cfg.Requests)
		}
	}
	// Placement must not wreck service quality: the four-group cell's
	// violation rate may differ (fewer GPUs per model) but not collapse.
	if four.ViolationRate > one.ViolationRate+0.15 {
		t.Fatalf("placement groups degraded violations %.3f -> %.3f", one.ViolationRate, four.ViolationRate)
	}
	if !strings.Contains(r.String(), "Control-plane scale") {
		t.Fatal("missing header")
	}
}

// TestScaleDeterminism: equal configs render byte-identical output,
// including across the concurrent runner.
func TestScaleDeterminism(t *testing.T) {
	t.Parallel()
	cfg := ScaleConfig{
		Shards:   []int{1, 2},
		Models:   64,
		Requests: 2_000,
		Rate:     2_000,
		Workers:  4,
		Seed:     3,
	}
	a := RunScale(cfg).String()
	b := RunScale(cfg).String()
	if a != b {
		t.Fatalf("scale scenario not deterministic:\n%s\nvs\n%s", a, b)
	}
}
