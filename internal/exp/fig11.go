package exp

import (
	"context"
	"fmt"

	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "MORC across cache sizes (64KB-4MB): ratio, normalized bandwidth, normalized throughput",
		run:   runFig11,
	})
}

// fig11Sizes are the paper's per-core LLC capacities.
var fig11Sizes = []int{64 << 10, 128 << 10, 256 << 10, 1024 << 10, 4096 << 10}

// runFig11 reproduces Figure 11: MORC vs the uncompressed baseline at
// each cache size; bandwidth and throughput are normalized to the
// uncompressed cache of the same size.
func runFig11(ctx context.Context, b Budget) []*Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	var cfgs []sim.Config // [size][Uncompressed, MORC], flattened
	for _, size := range fig11Sizes {
		for _, cfg := range b.configs([]sim.Scheme{sim.Uncompressed, sim.MORC}) {
			cfg.LLCBytesPerCore = size
			cfgs = append(cfgs, cfg)
		}
	}
	results := grid(ctx, singles(workloads), cfgs, nil)

	t := &Table{ID: "fig11", Title: "MORC vs cache size",
		Columns: []string{"cache size", "Compression Ratio", "Normalized Bandwidth", "Normalized Throughput"}}
	for i, size := range fig11Sizes {
		var ratios, bwRel, tputRel []float64
		for wi := range workloads {
			base, morc := results[wi][2*i], results[wi][2*i+1]
			ratios = append(ratios, morc.CompRatio)
			if base.MemBytes > 0 {
				bwRel = append(bwRel, float64(morc.MemBytes)/float64(base.MemBytes))
			}
			tputRel = append(tputRel, morc.Throughput/base.Throughput)
		}
		label := fmt.Sprintf("%dKB", size>>10)
		t.AddRow(label, stats.GeoMean(ratios), stats.Mean(bwRel), stats.GeoMean(tputRel))
	}
	return []*Table{t}
}
