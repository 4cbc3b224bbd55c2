package exp

import (
	"context"

	"morc/internal/sim"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig15",
		Title: "MORC vs MORCMerged (co-located tags and data) compression ratio",
		run:   runFig15,
	})
}

// runFig15 reproduces Figure 15: the separated-tag default against the
// merged layout where extra tags overflow into the data log (§3.2.6).
func runFig15(ctx context.Context, b Budget) []*Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	results := grid(ctx, singles(workloads), b.configs([]sim.Scheme{sim.MORC, sim.MORCMerged}), nil)

	t := &Table{ID: "fig15", Title: "Compression ratio (x)",
		Columns: []string{"workload", "MORC", "MORCMerged"}}
	t.addRows(workloads, func(i, c int) float64 { return results[i][c].CompRatio }, amean, gmean)
	return []*Table{t}
}
