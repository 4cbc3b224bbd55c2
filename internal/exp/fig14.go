package exp

import (
	"context"

	"morc/internal/cache"
	"morc/internal/core"
	"morc/internal/sim"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Distribution of MORC access latencies (bytes decompressed per hit, 16B/cycle)",
		run:   runFig14,
	})
}

// runFig14 reproduces Figure 14: the distribution of read hits over
// their position in the log, measured as bytes decompressed before the
// requested line is available (divide by 16 for cycles). The paper's
// finding — cache-line usefulness is position-independent — shows up as
// a fairly even spread.
func runFig14(ctx context.Context, b Budget) []*Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	latency := func(llc cache.LLC) []float64 {
		return llc.(*core.Cache).MorcStats().LatencyBytes.Fraction()
	}
	results := grid(ctx, singles(workloads), []sim.Config{b.Config(sim.MORC)}, latency)
	cols := []string{"workload", "≤64", "65-128", "129-192", "193-256",
		"257-320", "321-384", "385-448", "449-512", ">512"}
	t := &Table{ID: "fig14", Title: "Hit fraction by decompressed bytes", Columns: cols}
	for i, w := range workloads {
		t.AddRow(w, results[i][0].llc...)
	}
	return []*Table{t}
}
