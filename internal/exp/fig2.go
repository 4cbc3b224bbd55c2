package exp

import (
	"context"

	"morc/internal/cache"
	"morc/internal/compress/oracle"
	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Oracle intra-line vs inter-line compression (ratio and bandwidth reduction)",
		run:   runFig2,
	})
}

// runFig2 reproduces Figure 2's limit study: ideal intra-line and
// inter-line word-dedup caches (footnote 1) on every base benchmark,
// reporting compression ratio and bandwidth reduction vs. an
// uncompressed cache of the same size.
func runFig2(ctx context.Context, b Budget) []*Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	const cacheBytes = 128 * 1024

	// [workload][Oracle-Intra, Oracle-Inter]
	ratios, bws := make([][2]float64, len(workloads)), make([][2]float64, len(workloads))

	check(forEach(ctx, len(workloads), func(_ context.Context, i int) error {
		defer sim.Busy()()
		p := trace.MustGet(workloads[i])
		gen := trace.NewSynthGen(p)
		memv := trace.NewMemory(p)
		l1 := cache.NewSetAssoc(32*1024, 4, cache.LRU)
		intra := oracle.New(oracle.Intra, cacheBytes)
		inter := oracle.New(oracle.Inter, cacheBytes)
		base := cache.NewSetAssoc(cacheBytes, 8, cache.LRU)

		target := b.Warmup + b.Measure
		var instr uint64
		var intraRatios, interRatios []float64
		measured := false
		var baseMiss, intraMiss, interMiss uint64
		for instr < target {
			a := gen.Next()
			instr += a.Instructions()
			if instr >= b.Warmup && !measured {
				measured = true
				baseMiss, intraMiss, interMiss = 0, 0, 0
			}
			if l1.Read(a.Addr).Hit {
				continue
			}
			line := memv.ReadLine(a.Addr)
			l1.Fill(a.Addr, line)
			if !base.Read(a.Addr).Hit {
				base.Fill(a.Addr, line)
				baseMiss++
			}
			if !intra.Access(a.Addr, line) {
				intraMiss++
			}
			if !inter.Access(a.Addr, line) {
				interMiss++
			}
			if measured && instr%1024 == 0 {
				intraRatios = append(intraRatios, intra.Ratio())
				interRatios = append(interRatios, inter.Ratio())
			}
		}
		ratios[i] = [2]float64{stats.Mean(intraRatios), stats.Mean(interRatios)}
		if ratios[i][0] == 0 {
			ratios[i][0] = intra.Ratio()
		}
		if ratios[i][1] == 0 {
			ratios[i][1] = inter.Ratio()
		}
		if baseMiss > 0 {
			bws[i][0] = 100 * (1 - float64(intraMiss)/float64(baseMiss))
			bws[i][1] = 100 * (1 - float64(interMiss)/float64(baseMiss))
		}
		return nil
	}))

	ratio := &Table{ID: "fig2a", Title: "Oracle compression ratio (x)",
		Columns: []string{"workload", "Oracle-Intra", "Oracle-Inter"}}
	ratio.addRows(workloads, func(i, c int) float64 { return ratios[i][c] }, amean, gmean)
	bw := &Table{ID: "fig2b", Title: "Oracle bandwidth reduction (%)",
		Columns: []string{"workload", "Oracle-Intra", "Oracle-Inter"}}
	bw.addRows(workloads, func(i, c int) float64 { return bws[i][c] }, amean)
	return []*Table{ratio, bw}
}
