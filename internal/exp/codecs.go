package exp

import (
	"context"

	"morc/internal/cache"
	"morc/internal/compress/cpack"
	"morc/internal/compress/fpc"
	"morc/internal/compress/lbe"
	"morc/internal/compress/lzref"
	"morc/internal/sim"
	"morc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "codecs",
		Title: "Codec comparison on LLC fill streams: LBE vs LZ vs C-Pack vs FPC (§3.2.5, §6)",
		run:   runCodecs,
	})
}

// runCodecs reproduces the paper's codec-level claims: LBE ≈ LZ in
// compression (with LZ impractical in hardware), and C-Pack ≈ FPC. The
// fill stream of an L1-filtered run is compressed in 512-byte-log-sized
// windows for the streaming codecs (LBE, LZ) and per line for the
// intra-line codecs (C-Pack, FPC).
func runCodecs(ctx context.Context, b Budget) []*Table {
	workloads := b.workloads(trace.BaseBenchmarks())
	t := &Table{ID: "codecs", Title: "Fill-stream compression ratio (x)",
		Columns: []string{"workload", "LBE", "LZ", "C-Pack", "FPC"}}

	rows := make([][4]float64, len(workloads))
	check(forEach(ctx, len(workloads), func(_ context.Context, i int) error {
		defer sim.Busy()()
		p := trace.MustGet(workloads[i])
		gen := trace.NewSynthGen(p)
		memv := trace.NewMemory(p)
		l1 := cache.NewSetAssoc(32*1024, 4, cache.LRU)

		const logBits = 512 * 8
		lbeEnc := lbe.NewEncoder(lbe.DefaultConfig())
		lzEnc := lzref.NewEncoder(lzref.DefaultConfig())
		var lbeBits, lbeIn, lzBits, lzIn int
		var cpackBits, fpcBits, rawBits int

		var instr uint64
		for instr < b.Warmup+b.Measure {
			a := gen.Next()
			instr += a.Instructions()
			if l1.Read(a.Addr).Hit {
				continue
			}
			line := memv.ReadLine(a.Addr)
			l1.Fill(a.Addr, line)

			// Streaming codecs restart at log boundaries.
			if lbeEnc.Bits() >= logBits {
				lbeBits += lbeEnc.Bits()
				lbeIn += lbeEnc.InputBytes()
				lbeEnc = lbe.NewEncoder(lbe.DefaultConfig())
			}
			lbeEnc.AppendCommit(line)
			if lzEnc.Bits() >= logBits {
				lzBits += lzEnc.Bits()
				lzIn += lzEnc.InputBytes()
				lzEnc = lzref.NewEncoder(lzref.DefaultConfig())
			}
			lzEnc.Append(line)

			cpackBits += cpack.CompressedBits(line)
			fpcBits += fpc.CompressedBits(line)
			rawBits += cache.LineSize * 8
		}
		lbeBits += lbeEnc.Bits()
		lbeIn += lbeEnc.InputBytes()
		lzBits += lzEnc.Bits()
		lzIn += lzEnc.InputBytes()
		if lbeBits == 0 || lzBits == 0 || cpackBits == 0 || fpcBits == 0 {
			return nil
		}
		rows[i] = [4]float64{
			float64(lbeIn*8) / float64(lbeBits),
			float64(lzIn*8) / float64(lzBits),
			float64(rawBits) / float64(cpackBits),
			float64(rawBits) / float64(fpcBits),
		}
		return nil
	}))
	t.addRows(workloads, func(i, c int) float64 { return rows[i][c] }, gmean)
	return []*Table{t}
}
