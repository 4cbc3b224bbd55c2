package exp

import (
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
	bwT := &Table{ID: "fig8b", Title: "Bandwidth reduction vs Uncompressed (%)", Columns: compCols}
	ipcT := &Table{ID: "fig8c", Title: "IPC improvement (%)", Columns: compCols}
	ctT := &Table{ID: "fig8d", Title: "Completion-time improvement (%)", Columns: compCols}

	agg := map[string][][]float64{
		"ratio": make([][]float64, len(schemes)),
		"bw":    make([][]float64, len(schemes)),
		"ipc":   make([][]float64, len(schemes)),
		"ct":    make([][]float64, len(schemes)),
	}
	for mi, m := range mixes {
		base := results[mi][0]
		var ratios, bws, ipcs, cts []float64
		for si := range schemes {
			r := results[mi][si]
			ratios = append(ratios, r.CompRatio)
			agg["ratio"][si] = append(agg["ratio"][si], r.CompRatio)
			if si == 0 {
				continue
			}
			bw := 0.0
			if base.MemBytes > 0 {
				bw = 100 * (1 - float64(r.MemBytes)/float64(base.MemBytes))
			}
			bws = append(bws, bw)
			ipcs = append(ipcs, pct(r.IPC, base.IPC))
			// Completion-time improvement: base slower => positive.
			cts = append(cts, pct(float64(base.CompletionCycles), float64(r.CompletionCycles)))
			agg["bw"][si] = append(agg["bw"][si], 1-float64(r.MemBytes)/float64(base.MemBytes))
			agg["ipc"][si] = append(agg["ipc"][si], r.IPC/base.IPC)
			agg["ct"][si] = append(agg["ct"][si], float64(base.CompletionCycles)/float64(r.CompletionCycles))
		}
		ratioT.AddRow(m, ratios...)
		bwT.AddRow(m, bws...)
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
		for si := 1; si < len(agg[key])+0; si++ {
			if key == "bw" {
				row = append(row, 100*stats.Mean(agg[key][si]))
			} else {
				row = append(row, 100*(stats.GeoMean(agg[key][si])-1))
			}
		}
		t.AddRow("Mean", row...)
	}
	addImpMean(bwT, "bw")
	addImpMean(ipcT, "ipc")
	addImpMean(ctT, "ct")
	return []*Table{ratioT, bwT, ipcT, ctT}
}
