package exp

import (
	"context"
	"fmt"

	"morc/internal/core"
	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig13a",
		Title: "Compression ratio vs log size (128B-4096B, 8 active logs, unlimited tags/LMT)",
		run:   runFig13a,
	})
	register(Experiment{
		ID:    "fig13b",
		Title: "Compression ratio vs number of active logs (1-64, 512B logs, unlimited tags/LMT)",
		run:   runFig13b,
	})
}

// fig13Run sweeps a MORC configuration mutator over the workloads and
// reports gmean compression ratio per point (the paper's limit study
// assumes unlimited tags and LMT entries).
func fig13Run(ctx context.Context, b Budget, id, title, colName string, points []int, mutate func(*core.Config, int)) []*Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	cfgs := make([]sim.Config, len(points))
	for i, pt := range points {
		cfgs[i] = b.Config(sim.MORC)
		mc := core.DefaultConfig(cfgs[i].LLCBytesPerCore)
		mc.UnlimitedTags = true
		mutate(&mc, pt)
		cfgs[i].MORCConfig = &mc
	}
	results := grid(ctx, singles(workloads), cfgs, nil)
	t := &Table{ID: id, Title: title, Columns: []string{colName, "GMean ratio", "AMean ratio"}}
	for i, pt := range points {
		var ratios []float64
		for wi := range workloads {
			ratios = append(ratios, results[wi][i].CompRatio)
		}
		t.AddRow(fmt.Sprint(pt), stats.GeoMean(ratios), stats.Mean(ratios))
	}
	return []*Table{t}
}

func runFig13a(ctx context.Context, b Budget) []*Table {
	// 64B logs cannot hold an incompressible 64B line (the paper's limit
	// study presumably bypasses; we start at 128B and note it).
	sizes := []int{128, 256, 512, 1024, 2048, 4096}
	return fig13Run(ctx, b, "fig13a", "Compression ratio vs log size (bytes)", "log size",
		sizes, func(mc *core.Config, size int) {
			mc.LogBytes = size
			if mc.CacheBytes/size <= mc.ActiveLogs {
				mc.ActiveLogs = mc.CacheBytes/size - 1
			}
		})
}

func runFig13b(ctx context.Context, b Budget) []*Table {
	counts := []int{1, 4, 8, 16, 32, 64}
	return fig13Run(ctx, b, "fig13b", "Compression ratio vs active logs", "active logs",
		counts, func(mc *core.Config, n int) {
			mc.ActiveLogs = n
		})
}
