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
		ID:    "fig10",
		Title: "Normalized IPC and throughput across per-core bandwidth (1600/400/100/12.5 MB/s)",
		run:   runFig10,
	})
}

// fig10Bandwidths are the paper's operating points in bytes/sec.
var fig10Bandwidths = []float64{1600e6, 400e6, 100e6, 12.5e6}

// runFig10 reproduces Figure 10: geometric-mean IPC and throughput of
// each compression scheme normalized to the uncompressed baseline at the
// same bandwidth.
func runFig10(ctx context.Context, b Budget) []*Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	schemes := sim.ComparedSchemes()
	var cfgs []sim.Config // [bandwidth][scheme], flattened
	for _, bw := range fig10Bandwidths {
		for _, cfg := range b.configs(schemes) {
			cfg.BWPerCore = bw
			cfgs = append(cfgs, cfg)
		}
	}
	results := grid(ctx, singles(workloads), cfgs, nil)

	ipcT := &Table{ID: "fig10a", Title: "Normalized IPC (gmean over workloads)",
		Columns: columns("bandwidth", schemes[1:])}
	tputT := &Table{ID: "fig10b", Title: "Normalized throughput (gmean over workloads)",
		Columns: columns("bandwidth", schemes[1:])}
	for bi, bw := range fig10Bandwidths {
		point := bi * len(schemes)
		ipcRel := make([][]float64, len(schemes))
		tputRel := make([][]float64, len(schemes))
		for wi := range workloads {
			base := results[wi][point]
			for si := 1; si < len(schemes); si++ {
				r := results[wi][point+si]
				ipcRel[si] = append(ipcRel[si], r.IPC/base.IPC)
				tputRel[si] = append(tputRel[si], r.Throughput/base.Throughput)
			}
		}
		label := fmt.Sprintf("%gMB/s", bw/1e6)
		var iRow, tRow []float64
		for si := 1; si < len(schemes); si++ {
			iRow = append(iRow, stats.GeoMean(ipcRel[si]))
			tRow = append(tRow, stats.GeoMean(tputRel[si]))
		}
		ipcT.AddRow(label, iRow...)
		tputT.AddRow(label, tRow...)
	}
	return []*Table{ipcT, tputT}
}
