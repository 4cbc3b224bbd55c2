package exp

import (
	"context"
	"strings"

	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Multi-program (16 threads, 1600MB/s shared): ratio, BW reduction, IPC, completion time",
		run:   runFig8,
	})
}

// runFig8 reproduces Figure 8: the Table 6 mixes on a 16-core system
// with a shared LLC and 1600MB/s of shared bandwidth.
func runFig8(ctx context.Context, b Budget) []*Table {
	mixes := trace.MixNames()
	schemes := b.restrictSchemes(sim.ComparedSchemes())
	sets := make([][]trace.Profile, len(mixes))
	for mi, m := range mixes {
		sets[mi] = trace.MixPrograms(trace.MultiProgramMixes()[m])
	}
	results := grid(ctx, sets, b.mix().configs(schemes), nil)

	cols := columns("mix", schemes)
	compCols := append([]string{"mix"}, cols[2:]...) // improvements exclude Uncompressed
	ratioT := &Table{ID: "fig8a", Title: "Compression ratio (x)", Columns: cols}
	ratioT.addRows(mixes, func(i, c int) float64 { return results[i][c].CompRatio }, gmean)
	mean := aggregate{"Mean", stats.GeoMean}
	ipcT := &Table{ID: "fig8c", Title: "IPC improvement (%)", Columns: compCols}
	ipcT.addRows(mixes, func(i, c int) float64 { return results[i][c+1].IPC / results[i][0].IPC }, mean)
	// Completion-time improvement: base slower => positive.
	ctT := &Table{ID: "fig8d", Title: "Completion-time improvement (%)", Columns: compCols}
	ctT.addRows(mixes, func(i, c int) float64 {
		return float64(results[i][0].CompletionCycles) / float64(results[i][c+1].CompletionCycles)
	}, mean)
	return []*Table{ratioT, fig8BW(mixes, results, compCols), ipcT.asPercent(), ctT.asPercent()}
}

// fig8BW builds fig8b from each mix's results, Uncompressed's first. A
// mix in which Uncompressed moved no memory bytes fits in the LLC, so
// no scheme can reduce its traffic: its cells read 0, and the Mean,
// which would divide 0 by 0, leaves it out. The table's note says so.
func fig8BW(mixes []string, results [][]outcome, cols []string) *Table {
	t := &Table{ID: "fig8b", Title: "Bandwidth reduction vs Uncompressed (%)", Columns: cols}
	reductions := make([][]float64, len(cols)-1)
	var left []string
	for mi, m := range mixes {
		base := results[mi][0]
		if base.MemBytes == 0 {
			left = append(left, m)
		}
		row := make([]float64, len(cols)-1)
		for si, r := range results[mi][1:] {
			if base.MemBytes > 0 {
				red := 1 - float64(r.MemBytes)/float64(base.MemBytes)
				row[si] = 100 * red
				reductions[si] = append(reductions[si], red)
			}
		}
		t.AddRow(m, row...)
	}
	mean := make([]float64, len(reductions))
	for si, reds := range reductions {
		mean[si] = 100 * stats.Mean(reds)
	}
	t.AddRow("Mean", mean...)
	t.Note = "Mean: over the mixes in which Uncompressed moved memory bytes; left out: none"
	if len(left) > 0 {
		t.Note = "Mean: over the mixes in which Uncompressed moved memory bytes; left out: " + strings.Join(left, ", ")
	}
	return t
}
