package exp

import (
	"context"

	"morc/internal/cache"
	"morc/internal/core"
	"morc/internal/sim"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "Write-back-induced invalid line ratio: inclusive vs non-inclusive (compression disabled)",
		run:   runFig12,
	})
}

// runFig12 reproduces Figure 12: the fraction of log entries invalidated
// by write-backs under the inclusive and non-inclusive fill policies,
// with compression disabled to accentuate invalidations (paper §5.4.2).
func runFig12(ctx context.Context, b Budget) []*Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	var cfgs []sim.Config // Inclusive, then non-inclusive
	for _, inclusive := range []bool{true, false} {
		cfg := b.Config(sim.MORC)
		cfg.Inclusive = inclusive
		mc := core.DefaultConfig(cfg.LLCBytesPerCore)
		mc.DisableCompression = true
		mc.UnlimitedTags = true
		cfg.MORCConfig = &mc
		cfgs = append(cfgs, cfg)
	}
	invalid := func(llc cache.LLC) []float64 {
		return []float64{100 * llc.(*core.Cache).InvalidFraction()}
	}
	results := grid(ctx, singles(workloads), cfgs, invalid)

	t := &Table{ID: "fig12", Title: "Invalid cache line (%)",
		Columns: []string{"workload", "Inclusive", "Non-Inclusive"}}
	t.addRows(workloads, func(i, c int) float64 { return results[i][c].llc[0] }, amean)
	return []*Table{t}
}
