package exp

import (
	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "ext",
		Title: "Extensions: Skewed cache, memory-link compression, synchronized threads",
		Run:   runExtensions,
	})
}

// runExtensions evaluates three ideas the paper discusses but does not
// evaluate: the Skewed Compressed Cache as a Decoupled-class baseline
// (§6), memory-link compression as a complement to cache compression
// (§6), and instruction-synchronized same-program threads (§5.2).
func runExtensions(b Budget) []*Table {
	return []*Table{
		extSkewed(b),
		extLinkCompression(b),
		extSyncedThreads(b),
	}
}

// extSkewed compares Skewed against Decoupled and MORC.
func extSkewed(b Budget) *Table {
	workloads := b.Workloads
	if workloads == nil {
		workloads = trace.BaseBenchmarks()
	}
	schemes := []sim.Scheme{sim.Decoupled, sim.Skewed, sim.MORC}
	results := runSingleSet(b, workloads, schemes, nil)
	t := &Table{ID: "ext-skewed", Title: "Skewed Compressed Cache vs Decoupled vs MORC (ratio)",
		Columns: []string{"workload", "Decoupled", "Skewed", "MORC"}}
	agg := make([][]float64, len(schemes))
	for wi, w := range workloads {
		var row []float64
		for si := range schemes {
			row = append(row, results[wi][si].CompRatio)
			agg[si] = append(agg[si], results[wi][si].CompRatio)
		}
		t.AddRow(w, row...)
	}
	t.AddRow("GMean", stats.GeoMean(agg[0]), stats.GeoMean(agg[1]), stats.GeoMean(agg[2]))
	return t
}

// extLinkCompression measures off-chip traffic and throughput with and
// without C-Pack on the memory channel, for the uncompressed baseline
// and MORC — showing the two techniques compose.
func extLinkCompression(b Budget) *Table {
	workloads := b.Workloads
	if workloads == nil {
		workloads = trace.BaseBenchmarks()
	}
	t := &Table{ID: "ext-link",
		Title:   "Memory-link compression (gmean normalized throughput vs plain Uncompressed)",
		Columns: []string{"configuration", "norm. throughput", "norm. channel busy"}}

	type cfgPoint struct {
		name   string
		scheme sim.Scheme
		link   bool
	}
	points := []cfgPoint{
		{"Uncompressed", sim.Uncompressed, false},
		{"Uncompressed+link", sim.Uncompressed, true},
		{"MORC", sim.MORC, false},
		{"MORC+link", sim.MORC, true},
	}
	// Collect per-point gmeans relative to the first point.
	base := make([]sim.Result, len(workloads))
	for pi, pt := range points {
		results := runSingleSet(b, workloads, []sim.Scheme{pt.scheme}, func(c *sim.Config) {
			c.LinkCompression = pt.link
		})
		if pi == 0 {
			for wi := range workloads {
				base[wi] = results[wi][0]
			}
		}
		var tput, traffic []float64
		for wi := range workloads {
			r := results[wi][0]
			tput = append(tput, r.Throughput/base[wi].Throughput)
			if base[wi].MemBytes > 0 {
				traffic = append(traffic, float64(r.MemBytes)/float64(base[wi].MemBytes))
			}
		}
		t.AddRow(pt.name, stats.GeoMean(tput), stats.Mean(traffic))
	}
	return t
}

// extSyncedThreads reruns the same-program mixes with perfectly
// in-phase threads and compares MORC's compression ratio.
func extSyncedThreads(b Budget) *Table {
	mixes := []string{"S1", "S2", "S4"}
	t := &Table{ID: "ext-sync",
		Title:   "Same-program mixes: asynchronous vs synchronized threads (MORC off-chip GB per billion instructions)",
		Columns: []string{"mix", "async", "synced"}}
	type job struct {
		mi     int
		synced bool
	}
	var jobs []job
	vals := make([][2]float64, len(mixes))
	for mi := range mixes {
		jobs = append(jobs, job{mi, false}, job{mi, true})
	}
	parallelFor(len(jobs), func(j int) {
		mi, synced := jobs[j].mi, jobs[j].synced
		cfg := sim.DefaultConfig()
		cfg.Scheme = sim.MORC
		cfg.WarmupInstr = b.Warmup / 4
		cfg.MeasureInstr = b.Measure / 4
		cfg.SampleEvery = b.SampleEvery
		progs := trace.MultiProgramMixes()[mixes[mi]]
		var ps []trace.Profile
		if synced {
			ps = trace.MixProgramsSynced(progs)
		} else {
			ps = trace.MixPrograms(progs)
		}
		cfg.Cores = len(ps)
		r := sim.New(cfg, ps).Run()
		if synced {
			vals[mi][1] = r.GBPerBillionInstr
		} else {
			vals[mi][0] = r.GBPerBillionInstr
		}
	})
	for mi, m := range mixes {
		t.AddRow(m, vals[mi][0], vals[mi][1])
	}
	return t
}
