package exp

import (
	"context"

	"morc/internal/core"
	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "ablate",
		Title: "MORC design-choice ablations (fudge factor, multi-base tags, tag region, codec)",
		run:   runAblate,
	})
}

// ablateVariant is one MORC configuration variant.
type ablateVariant struct {
	name   string
	mutate func(*core.Config)
}

// runAblate quantifies the design choices the paper argues for:
// the 5% fudge-factor diversification (§3.2.3), the two-base tag
// compression (§3.2.4), the compressed-tag region size, and LBE's large
// blocks (by restricting matches to 32-bit granularity, i.e. a C-Pack-
// like dictionary), plus the single- vs multi-log gap.
func runAblate(ctx context.Context, b Budget) []*Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	variants := []ablateVariant{
		{"default", func(*core.Config) {}},
		{"no-fudge", func(c *core.Config) { c.FudgeFactor = 0 }},
		{"single-base-tags", func(c *core.Config) { c.Tag.MultiBase = false }},
		{"single-log", func(c *core.Config) { c.ActiveLogs = 1 }},
		{"half-tag-region", func(c *core.Config) { c.TagBytesPerLog /= 2 }},
		{"32b-only-lbe", func(c *core.Config) {
			// Degenerate LBE: one-entry large-granule dictionaries make
			// m64/m128/m256 matches effectively impossible, leaving a
			// C-Pack-like 32-bit-granularity dictionary codec.
			c.LBE.Dict64, c.LBE.Dict128, c.LBE.Dict256 = 1, 1, 1
		}},
	}
	cfgs := make([]sim.Config, len(variants))
	for vi, v := range variants {
		cfgs[vi] = b.Config(sim.MORC)
		mc := core.DefaultConfig(cfgs[vi].LLCBytesPerCore)
		v.mutate(&mc)
		cfgs[vi].MORCConfig = &mc
	}
	results := grid(ctx, singles(workloads), cfgs, nil)

	t := &Table{ID: "ablate", Title: "GMean compression ratio by MORC variant",
		Columns: []string{"variant", "GMean ratio", "vs default %"}}
	ratios := make([]float64, len(variants))
	for vi := range variants {
		var rs []float64
		for wi := range workloads {
			rs = append(rs, results[wi][vi].CompRatio)
		}
		ratios[vi] = stats.GeoMean(rs)
	}
	for vi, v := range variants {
		t.AddRow(v.name, ratios[vi], pct(ratios[vi], ratios[0]))
	}
	return []*Table{t}
}
