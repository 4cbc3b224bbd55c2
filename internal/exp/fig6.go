package exp

import (
	"context"

	"morc/internal/sim"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Single-program: compression ratio, bandwidth, IPC, throughput (100MB/s per core)",
		run:   runFig6,
	})
}

// runFig6 produces the four panels of Figure 6.
func runFig6(ctx context.Context, b Budget) []*Table {
	workloads := b.workloads(trace.SingleProgramWorkloads())
	schemes := b.restrictSchemes(sim.ComparedSchemes())
	results := grid(ctx, singles(workloads), b.configs(schemes), nil)

	cols := columns("workload", schemes)
	impCols := append([]string{"workload"}, cols[2:]...) // improvements leave out Uncompressed
	ratio := &Table{ID: "fig6a", Title: "Compression ratio (x)", Columns: cols}
	ratio.addRows(workloads, func(i, c int) float64 { return results[i][c].CompRatio }, amean, gmean)
	bwT := &Table{ID: "fig6b", Title: "Off-chip bandwidth (GB per billion instructions)", Columns: cols}
	bwT.addRows(workloads, func(i, c int) float64 { return results[i][c].GBPerBillionInstr }, amean)
	ipcT := &Table{ID: "fig6c", Title: "IPC improvement over Uncompressed (%)", Columns: impCols}
	ipcT.addRows(workloads, func(i, c int) float64 { return results[i][c+1].IPC / results[i][0].IPC }, gmean)
	tputT := &Table{ID: "fig6d", Title: "Throughput improvement over Uncompressed (%)", Columns: impCols}
	tputT.addRows(workloads, func(i, c int) float64 { return results[i][c+1].Throughput / results[i][0].Throughput }, gmean)
	return []*Table{ratio, bwT, ipcT.asPercent(), tputT.asPercent()}
}
