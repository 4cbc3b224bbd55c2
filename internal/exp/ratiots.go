package exp

import (
	"context"
	"fmt"

	"morc/internal/sim"
	"morc/internal/telemetry"
)

func init() {
	register(Experiment{
		ID:    "ratiots",
		Title: "Compression ratio vs. instructions (per-epoch telemetry)",
		run:   runRatioTS,
	})
}

// ratioTSWorkloads is the default workload subset: a highly compressible
// program, a memory-bound one, and a mixed FP workload — enough to show
// how differently ratios evolve as caches warm and phases change.
var ratioTSWorkloads = []string{"gcc", "mcf", "cactusADM"}

// ratioTSEpochs is how many epochs the experiment slices the measurement
// window into. The paper samples every 10M instructions over 30M-100M
// windows; scaling the grid to the budget keeps the table readable at
// any window size.
const ratioTSEpochs = 12

// runRatioTS runs every scheme with telemetry enabled and tabulates each
// epoch's compression ratio: one table per workload, one column per
// scheme, one row per epoch boundary. It is the longitudinal view behind
// Figure 6a's single averaged bar.
func runRatioTS(ctx context.Context, b Budget) []*Table {
	workloads := b.workloads(ratioTSWorkloads)
	schemes := b.restrictSchemes(sim.ComparedSchemes())
	every := b.Measure / ratioTSEpochs
	if every == 0 {
		every = 1
	}
	cfgs := b.configs(schemes)
	for i := range cfgs {
		cfgs[i].Telemetry = telemetry.Config{Every: every}
	}
	results := grid(ctx, singles(workloads), cfgs, nil)

	cols := columns("instructions", schemes)
	var tables []*Table
	for wi, w := range workloads {
		t := &Table{
			ID:      "ratiots-" + w,
			Title:   fmt.Sprintf("%s: compression ratio per %d-instruction epoch (x)", w, every),
			Columns: cols,
		}
		// Every scheme simulates the identical instruction stream, so the
		// epoch grids line up; take the shortest series defensively.
		rows := -1
		for si := range schemes {
			ts := results[wi][si].Telemetry
			if ts == nil {
				rows = 0
				break
			}
			if n := len(ts.Epochs); rows < 0 || n < rows {
				rows = n
			}
		}
		for e := 0; e < rows; e++ {
			vals := make([]float64, len(schemes))
			for si := range schemes {
				vals[si] = results[wi][si].Telemetry.Epochs[e].CompRatio
			}
			t.AddRow(fmt.Sprintf("%d", results[wi][0].Telemetry.Epochs[e].EndInstr), vals...)
		}
		tables = append(tables, t)
	}
	return tables
}
