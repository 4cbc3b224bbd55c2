package exp

import (
	"morc/internal/core"
	"morc/internal/sim"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Distribution of MORC access latencies (bytes decompressed per hit, 16B/cycle)",
		Run:   runFig14,
	})
}

// runFig14 reproduces Figure 14: the distribution of read hits over
// their position in the log, measured as bytes decompressed before the
// requested line is available (divide by 16 for cycles). The paper's
// finding — cache-line usefulness is position-independent — shows up as
// a fairly even spread.
func runFig14(b Budget) []*Table {
	workloads := b.Workloads
	if workloads == nil {
		workloads = trace.BaseBenchmarks()
	}
	cols := []string{"workload", "<64", "65-128", "129-196", "197-256",
		"257-320", "321-384", "385-448", "449-512", ">512"}
	t := &Table{ID: "fig14", Title: "Hit fraction by decompressed bytes", Columns: cols}

	rows := make([][]float64, len(workloads))
	parallelFor(len(workloads), func(i int) {
		cfg := sim.DefaultConfig()
		cfg.Scheme = sim.MORC
		cfg.WarmupInstr = b.Warmup
		cfg.MeasureInstr = b.Measure
		cfg.SampleEvery = b.SampleEvery
		run := sim.RunSingleSystem(workloads[i], cfg)
		h := run.System.LLC().(*core.Cache).MorcStats().LatencyBytes
		rows[i] = h.Fraction()
	})
	for i, w := range workloads {
		t.AddRow(w, rows[i]...)
	}
	return []*Table{t}
}
