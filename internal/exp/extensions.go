package exp

import (
	"context"

	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "ext",
		Title: "Extensions: Skewed cache, memory-link compression, synchronized threads",
		run:   runExtensions,
	})
}

// runExtensions evaluates three ideas the paper discusses but does not
// evaluate: the Skewed Compressed Cache as a Decoupled-class baseline
// (§6), memory-link compression as a complement to cache compression
// (§6), and instruction-synchronized same-program threads (§5.2).
func runExtensions(ctx context.Context, b Budget) []*Table {
	return []*Table{
		extSkewed(ctx, b),
		extLinkCompression(ctx, b),
		extSyncedThreads(ctx, b),
	}
}

// extSkewed compares Skewed against Decoupled and MORC.
func extSkewed(ctx context.Context, b Budget) *Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	schemes := []sim.Scheme{sim.Decoupled, sim.Skewed, sim.MORC}
	results := grid(ctx, singles(workloads), b.configs(schemes), nil)
	t := &Table{ID: "ext-skewed", Title: "Skewed Compressed Cache vs Decoupled vs MORC (ratio)",
		Columns: []string{"workload", "Decoupled", "Skewed", "MORC"}}
	t.addRows(workloads, func(i, c int) float64 { return results[i][c].CompRatio }, gmean)
	return t
}

// extLinkCompression measures off-chip traffic and throughput with and
// without C-Pack on the memory channel, for the uncompressed baseline
// and MORC — showing the two techniques compose.
func extLinkCompression(ctx context.Context, b Budget) *Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	points := []struct {
		name   string
		scheme sim.Scheme
		link   bool
	}{
		{"Uncompressed", sim.Uncompressed, false},
		{"Uncompressed+link", sim.Uncompressed, true},
		{"MORC", sim.MORC, false},
		{"MORC+link", sim.MORC, true},
	}
	cfgs := make([]sim.Config, len(points))
	for pi, pt := range points {
		cfgs[pi] = b.Config(pt.scheme)
		cfgs[pi].LinkCompression = pt.link
	}
	results := grid(ctx, singles(workloads), cfgs, nil)
	t := &Table{ID: "ext-link",
		Title:   "Memory-link compression (gmean normalized throughput vs plain Uncompressed)",
		Columns: []string{"configuration", "norm. throughput", "norm. channel busy"}}
	// Each point's gmeans are relative to the first point.
	for pi, pt := range points {
		var tput, traffic []float64
		for wi := range workloads {
			r, base := results[wi][pi], results[wi][0]
			tput = append(tput, r.Throughput/base.Throughput)
			if base.MemBytes > 0 {
				traffic = append(traffic, float64(r.MemBytes)/float64(base.MemBytes))
			}
		}
		t.AddRow(pt.name, stats.GeoMean(tput), stats.Mean(traffic))
	}
	return t
}

// extSyncedThreads reruns the same-program mixes with perfectly
// in-phase threads and compares MORC's off-chip traffic.
func extSyncedThreads(ctx context.Context, b Budget) *Table {
	mixes := []string{"S1", "S2", "S4"}
	var sets [][]trace.Profile // [mix][async, synced], flattened
	for _, m := range mixes {
		progs := trace.MultiProgramMixes()[m]
		sets = append(sets, trace.MixPrograms(progs), trace.MixProgramsSynced(progs))
	}
	results := grid(ctx, sets, []sim.Config{b.mix().Config(sim.MORC)}, nil)
	t := &Table{ID: "ext-sync",
		Title:   "Same-program mixes: asynchronous vs synchronized threads (MORC off-chip GB per billion instructions)",
		Columns: []string{"mix", "async", "synced"}}
	for mi, m := range mixes {
		t.AddRow(m, results[2*mi][0].GBPerBillionInstr, results[2*mi+1][0].GBPerBillionInstr)
	}
	return t
}
