package exp

import (
	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Single-program: compression ratio, bandwidth, IPC, throughput (100MB/s per core)",
		Run:   runFig6,
	})
}

// fig6Schemes are the five series of Figure 6.
func fig6Schemes() []sim.Scheme { return sim.ComparedSchemes() }

// runSingleSet runs every (workload, scheme) pair of a single-program
// experiment in parallel and returns results indexed [workload][scheme].
func runSingleSet(b Budget, workloads []string, schemes []sim.Scheme, mutate func(*sim.Config)) [][]sim.Result {
	results := make([][]sim.Result, len(workloads))
	type job struct{ wi, si int }
	var jobs []job
	for wi := range workloads {
		results[wi] = make([]sim.Result, len(schemes))
		for si := range schemes {
			jobs = append(jobs, job{wi, si})
		}
	}
	parallelFor(len(jobs), func(j int) {
		wi, si := jobs[j].wi, jobs[j].si
		cfg := sim.DefaultConfig()
		cfg.Scheme = schemes[si]
		cfg.WarmupInstr = b.Warmup
		cfg.MeasureInstr = b.Measure
		cfg.SampleEvery = b.SampleEvery
		if mutate != nil {
			mutate(&cfg)
		}
		results[wi][si] = sim.RunSingle(workloads[wi], cfg)
	})
	return results
}

// runFig6 produces the four panels of Figure 6.
func runFig6(b Budget) []*Table {
	workloads := b.Workloads
	if workloads == nil {
		workloads = trace.SingleProgramWorkloads()
	}
	schemes := b.restrictSchemes(fig6Schemes())
	results := runSingleSet(b, workloads, schemes, nil)

	cols := []string{"workload"}
	for _, s := range schemes {
		cols = append(cols, s.String())
	}
	// IPC/throughput panels exclude the Uncompressed column (always 0).
	impCols := []string{"workload"}
	for _, s := range schemes[1:] {
		impCols = append(impCols, s.String())
	}
	ratio := &Table{ID: "fig6a", Title: "Compression ratio (x)", Columns: cols}
	bwT := &Table{ID: "fig6b", Title: "Off-chip bandwidth (GB per billion instructions)", Columns: cols}
	ipcT := &Table{ID: "fig6c", Title: "IPC improvement over Uncompressed (%)", Columns: impCols}
	tputT := &Table{ID: "fig6d", Title: "Throughput improvement over Uncompressed (%)", Columns: impCols}

	agg := map[string][][]float64{} // table -> per-scheme value lists
	for _, id := range []string{"ratio", "bw", "ipc", "tput"} {
		agg[id] = make([][]float64, len(schemes))
	}
	for wi, w := range workloads {
		base := results[wi][0]
		var ratios, bws, ipcs, tputs []float64
		for si := range schemes {
			r := results[wi][si]
			ratios = append(ratios, r.CompRatio)
			bws = append(bws, r.GBPerBillionInstr)
			agg["ratio"][si] = append(agg["ratio"][si], r.CompRatio)
			agg["bw"][si] = append(agg["bw"][si], r.GBPerBillionInstr)
			if si > 0 {
				ipcs = append(ipcs, pct(r.IPC, base.IPC))
				tputs = append(tputs, pct(r.Throughput, base.Throughput))
				agg["ipc"][si] = append(agg["ipc"][si], r.IPC/base.IPC)
				agg["tput"][si] = append(agg["tput"][si], r.Throughput/base.Throughput)
			}
		}
		ratio.AddRow(w, ratios...)
		bwT.AddRow(w, bws...)
		ipcT.AddRow(w, ipcs...)
		tputT.AddRow(w, tputs...)
	}
	var am, gm []float64
	for si := range schemes {
		am = append(am, stats.Mean(agg["ratio"][si]))
		gm = append(gm, stats.GeoMean(agg["ratio"][si]))
	}
	ratio.AddRow("AMean", am...)
	ratio.AddRow("GMean", gm...)
	var bam []float64
	for si := range schemes {
		bam = append(bam, stats.Mean(agg["bw"][si]))
	}
	bwT.AddRow("AMean", bam...)
	var igm, tgm []float64
	for si := 1; si < len(schemes); si++ {
		igm = append(igm, 100*(stats.GeoMean(agg["ipc"][si])-1))
		tgm = append(tgm, 100*(stats.GeoMean(agg["tput"][si])-1))
	}
	ipcT.AddRow("GMean", igm...)
	tputT.AddRow("GMean", tgm...)
	return []*Table{ratio, bwT, ipcT, tputT}
}
