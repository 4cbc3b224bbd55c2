package exp

import (
	"context"

	"morc/internal/cache"
	"morc/internal/compress/lbe"
	"morc/internal/core"
	"morc/internal/sim"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Normalized LBE encoding-symbol distribution (data-size weighted)",
		run:   runFig7,
	})
}

// runFig7 reproduces Figure 7: the share of data covered by each LBE
// symbol class in MORC. Like the paper, the match columns (m256..m32)
// fold in the zero symbols of the same size; the "z*" columns report the
// all-zero portion separately (the paper's right-hand bars).
func runFig7(ctx context.Context, b Budget) []*Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	results := grid(ctx, singles(workloads), []sim.Config{b.Config(sim.MORC)}, symbolShares)
	cols := []string{"workload", "m256", "m128", "m64", "m32", "u32", "u16", "u8",
		"z256", "z128", "z64", "z32"}
	t := &Table{ID: "fig7", Title: "LBE symbol usage (fraction of data bytes)", Columns: cols}
	for i, w := range workloads {
		t.AddRow(w, results[i][0].llc...)
	}
	return []*Table{t}
}

// symbolShares reads fig7's row from a finished MORC LLC.
func symbolShares(llc cache.LLC) []float64 {
	st := llc.(*core.Cache).SymbolStats()
	var total float64
	bytesOf := func(s lbe.Symbol) float64 { return float64(st[s]) * float64(s.DataBytes()) }
	for s := lbe.Symbol(0); s < 11; s++ {
		total += bytesOf(s)
	}
	if total == 0 {
		total = 1
	}
	return []float64{
		(bytesOf(lbe.SymM256) + bytesOf(lbe.SymZ256)) / total,
		(bytesOf(lbe.SymM128) + bytesOf(lbe.SymZ128)) / total,
		(bytesOf(lbe.SymM64) + bytesOf(lbe.SymZ64)) / total,
		(bytesOf(lbe.SymM32) + bytesOf(lbe.SymZ32)) / total,
		bytesOf(lbe.SymU32) / total,
		bytesOf(lbe.SymU16) / total,
		bytesOf(lbe.SymU8) / total,
		bytesOf(lbe.SymZ256) / total,
		bytesOf(lbe.SymZ128) / total,
		bytesOf(lbe.SymZ64) / total,
		bytesOf(lbe.SymZ32) / total,
	}
}
