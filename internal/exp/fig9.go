package exp

import (
	"context"
	"slices"

	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Memory-subsystem energy (Table 7 model)",
		run:   runFig9,
	})
}

// fig9Schemes adds the 8x-capacity uncompressed comparison point the
// paper includes in Figure 9a.
func fig9Schemes() []sim.Scheme {
	return []sim.Scheme{sim.Uncompressed, sim.Uncompressed8x,
		sim.Adaptive, sim.Decoupled, sim.SC2, sim.MORC}
}

// runFig9 reproduces Figure 9a (absolute energy per scheme) and 9b
// (MORC's energy normalized to the uncompressed baseline, broken down by
// component). A Schemes filter that drops MORC leaves out 9b and its
// summary.
func runFig9(ctx context.Context, b Budget) []*Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	schemes := b.restrictSchemes(fig9Schemes())
	results := grid(ctx, singles(workloads), b.configs(schemes), nil)

	// Energies reported in millijoules for readability.
	eT := &Table{ID: "fig9a", Title: "Memory-subsystem energy (mJ)", Columns: columns("workload", schemes)}
	eT.addRows(workloads, func(i, c int) float64 { return results[i][c].Energy.Total() * 1e3 }, amean)

	mi := slices.Index(schemes, sim.MORC)
	if mi < 0 {
		return []*Table{eT}
	}
	bT := &Table{ID: "fig9b", Title: "MORC energy normalized to Uncompressed (breakdown)",
		Columns: []string{"workload", "Total", "Static", "DRAM", "SRAM", "Comp", "Decomp"}}
	var reduction []float64
	for wi, w := range workloads {
		total := results[wi][0].Energy.Total()
		morc := results[wi][mi].Energy
		bT.AddRow(w,
			morc.Total()/total,
			(morc.StaticJ+morc.DRAMStaticJ)/total,
			morc.DRAMJ/total,
			morc.SRAMJ/total,
			morc.CompressJ/total,
			morc.DecompressJ/total,
		)
		reduction = append(reduction, morc.Total()/total)
	}
	sum := &Table{ID: "fig9sum", Title: "MORC energy reduction vs Uncompressed (%)",
		Columns: []string{"metric", "value"}}
	sum.AddRow("mean reduction %", 100*(1-stats.Mean(reduction)))
	return []*Table{eT, bT, sum}
}
