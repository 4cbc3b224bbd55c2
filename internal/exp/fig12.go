package exp

import (
	"morc/internal/core"
	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "Write-back-induced invalid line ratio: inclusive vs non-inclusive (compression disabled)",
		Run:   runFig12,
	})
}

// runFig12 reproduces Figure 12: the fraction of log entries invalidated
// by write-backs under the inclusive and non-inclusive fill policies,
// with compression disabled to accentuate invalidations (paper §5.4.2).
func runFig12(b Budget) []*Table {
	workloads := b.Workloads
	if workloads == nil {
		workloads = trace.BaseBenchmarks()
	}
	t := &Table{ID: "fig12", Title: "Invalid cache line (%)",
		Columns: []string{"workload", "Inclusive", "Non-Inclusive"}}

	rows := make([][2]float64, len(workloads))
	type job struct {
		wi        int
		inclusive bool
	}
	var jobs []job
	for wi := range workloads {
		jobs = append(jobs, job{wi, true}, job{wi, false})
	}
	parallelFor(len(jobs), func(j int) {
		cfg := sim.DefaultConfig()
		cfg.Scheme = sim.MORC
		cfg.WarmupInstr = b.Warmup
		cfg.MeasureInstr = b.Measure
		cfg.SampleEvery = b.SampleEvery
		cfg.Inclusive = jobs[j].inclusive
		mc := core.DefaultConfig(cfg.LLCBytesPerCore)
		mc.DisableCompression = true
		mc.UnlimitedTags = true
		cfg.MORCConfig = &mc
		run := sim.RunSingleSystem(workloads[jobs[j].wi], cfg)
		frac := 100 * run.System.LLC().(*core.Cache).InvalidFraction()
		if jobs[j].inclusive {
			rows[jobs[j].wi][0] = frac
		} else {
			rows[jobs[j].wi][1] = frac
		}
	})
	var inc, non []float64
	for wi, w := range workloads {
		t.AddRow(w, rows[wi][0], rows[wi][1])
		inc = append(inc, rows[wi][0])
		non = append(non, rows[wi][1])
	}
	t.AddRow("AMean", stats.Mean(inc), stats.Mean(non))
	return []*Table{t}
}
