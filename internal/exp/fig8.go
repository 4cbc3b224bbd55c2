package exp

import (
	"strings"

	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Multi-program (16 threads, 1600MB/s shared): ratio, BW reduction, IPC, completion time",
		Run:   runFig8,
	})
}

// runFig8 reproduces Figure 8: the Table 6 mixes on a 16-core system
// with a shared LLC and 1600MB/s of shared bandwidth.
func runFig8(b Budget) []*Table {
	mixes := trace.MixNames()
	schemes := b.restrictSchemes(fig6Schemes())

	results := make([][]sim.Result, len(mixes))
	type job struct{ mi, si int }
	var jobs []job
	for mi := range mixes {
		results[mi] = make([]sim.Result, len(schemes))
		for si := range schemes {
			jobs = append(jobs, job{mi, si})
		}
	}
	parallelFor(len(jobs), func(j int) {
		mi, si := jobs[j].mi, jobs[j].si
		cfg := sim.DefaultConfig()
		cfg.Scheme = schemes[si]
		cfg.WarmupInstr = b.Warmup / 4
		cfg.MeasureInstr = b.Measure / 4
		cfg.SampleEvery = b.SampleEvery
		results[mi][si] = sim.RunMix(mixes[mi], cfg)
	})

	cols := []string{"mix"}
	for _, s := range schemes {
		cols = append(cols, s.String())
	}
	compCols := append([]string{"mix"}, cols[2:]...) // improvements exclude Uncompressed
	ratioT := &Table{ID: "fig8a", Title: "Compression ratio (x)", Columns: cols}
	ipcT := &Table{ID: "fig8c", Title: "IPC improvement (%)", Columns: compCols}
	ctT := &Table{ID: "fig8d", Title: "Completion-time improvement (%)", Columns: compCols}

	agg := map[string][][]float64{
		"ratio": make([][]float64, len(schemes)),
		"ipc":   make([][]float64, len(schemes)),
		"ct":    make([][]float64, len(schemes)),
	}
	for mi, m := range mixes {
		base := results[mi][0]
		var ratios, ipcs, cts []float64
		for si := range schemes {
			r := results[mi][si]
			ratios = append(ratios, r.CompRatio)
			agg["ratio"][si] = append(agg["ratio"][si], r.CompRatio)
			if si == 0 {
				continue
			}
			ipcs = append(ipcs, pct(r.IPC, base.IPC))
			// Completion-time improvement: base slower => positive.
			cts = append(cts, pct(float64(base.CompletionCycles), float64(r.CompletionCycles)))
			agg["ipc"][si] = append(agg["ipc"][si], r.IPC/base.IPC)
			agg["ct"][si] = append(agg["ct"][si], float64(base.CompletionCycles)/float64(r.CompletionCycles))
		}
		ratioT.AddRow(m, ratios...)
		ipcT.AddRow(m, ipcs...)
		ctT.AddRow(m, cts...)
	}
	var gm []float64
	for si := range schemes {
		gm = append(gm, stats.GeoMean(agg["ratio"][si]))
	}
	ratioT.AddRow("GMean", gm...)
	addImpMean := func(t *Table, key string) {
		var row []float64
		for si := 1; si < len(agg[key]); si++ {
			row = append(row, 100*(stats.GeoMean(agg[key][si])-1))
		}
		t.AddRow("Mean", row...)
	}
	addImpMean(ipcT, "ipc")
	addImpMean(ctT, "ct")
	return []*Table{ratioT, fig8BW(mixes, results, compCols), ipcT, ctT}
}

// fig8BW builds fig8b from each mix's results, Uncompressed's first. A
// mix in which Uncompressed moved no memory bytes fits in the LLC, so
// no scheme can reduce its traffic: its cells read 0, and the Mean,
// which would divide 0 by 0, leaves it out. The table's note says so.
func fig8BW(mixes []string, results [][]sim.Result, cols []string) *Table {
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
