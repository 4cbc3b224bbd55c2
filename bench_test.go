package morc_test

// One benchmark per table/figure of the paper's evaluation (run a scaled-
// down budget so `go test -bench=.` completes in minutes; use
// cmd/morcbench for full-budget reproductions), plus micro-benchmarks of
// the compression codecs and the MORC cache operations.

import (
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"time"

	"morc/internal/bench"
	"morc/internal/cache"
	"morc/internal/compress/cpack"
	"morc/internal/compress/fpc"
	"morc/internal/compress/huffman"
	"morc/internal/compress/lbe"
	"morc/internal/core"
	"morc/internal/exp"
	"morc/internal/rng"
	"morc/internal/sim"
	"morc/internal/telemetry"
	"morc/internal/trace"
)

// benchBudget is the scaled-down experiment budget for testing.B runs.
func benchBudget() exp.Budget {
	return exp.Budget{
		Warmup:      120_000,
		Measure:     150_000,
		SampleEvery: 50_000,
		Workloads:   []string{"gcc", "bzip2", "mcf", "cactusADM", "h264ref", "soplex"},
	}
}

// runExperiment executes a registered experiment b.N times, rendering to
// io.Discard so table construction is included.
func runExperiment(b *testing.B, id string) {
	e, ok := exp.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	budget := benchBudget()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range e.Run(budget) {
			t.Render(io.Discard)
		}
	}
}

// --- one bench per table / figure ---------------------------------------

func BenchmarkFig2OracleLimits(b *testing.B)         { runExperiment(b, "fig2") }
func BenchmarkFig6SingleProgram(b *testing.B)        { runExperiment(b, "fig6") }
func BenchmarkFig7SymbolDistribution(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8MultiProgram(b *testing.B)         { runExperiment(b, "fig8") }
func BenchmarkFig9Energy(b *testing.B)               { runExperiment(b, "fig9") }
func BenchmarkFig10BandwidthSweep(b *testing.B)      { runExperiment(b, "fig10") }
func BenchmarkFig11CacheSizeSweep(b *testing.B)      { runExperiment(b, "fig11") }
func BenchmarkFig12WritebackInvalid(b *testing.B)    { runExperiment(b, "fig12") }
func BenchmarkFig13aLogSizeSweep(b *testing.B)       { runExperiment(b, "fig13a") }
func BenchmarkFig13bActiveLogSweep(b *testing.B)     { runExperiment(b, "fig13b") }
func BenchmarkFig14LatencyDistribution(b *testing.B) { runExperiment(b, "fig14") }
func BenchmarkFig15MergedTags(b *testing.B)          { runExperiment(b, "fig15") }
func BenchmarkRatioTimeseries(b *testing.B)          { runExperiment(b, "ratiots") }
func BenchmarkTab1Energies(b *testing.B)             { runExperiment(b, "tab1") }
func BenchmarkTab4Overheads(b *testing.B)            { runExperiment(b, "tab4") }
func BenchmarkTab5Config(b *testing.B)               { runExperiment(b, "tab5") }
func BenchmarkTab7EnergyModel(b *testing.B)          { runExperiment(b, "tab7") }

// --- codec micro-benchmarks ---------------------------------------------

// benchLines builds n 64-byte lines of mixed compressibility.
func benchLines(n int) [][]byte {
	r := rng.New(7)
	pool := make([]uint32, 8)
	for i := range pool {
		pool[i] = r.Uint32()
	}
	lines := make([][]byte, n)
	for k := range lines {
		l := make([]byte, 64)
		for w := 0; w < 16; w++ {
			switch {
			case r.Bool(0.3):
				// zero
			case r.Bool(0.3):
				binary.LittleEndian.PutUint32(l[w*4:], pool[r.Intn(8)])
			case r.Bool(0.3):
				binary.LittleEndian.PutUint32(l[w*4:], uint32(r.Intn(500)))
			default:
				binary.LittleEndian.PutUint32(l[w*4:], r.Uint32())
			}
		}
		lines[k] = l
	}
	return lines
}

func BenchmarkLBECompress(b *testing.B) {
	lines := benchLines(64)
	b.SetBytes(64)
	b.ResetTimer()
	var enc *lbe.Encoder
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			enc = lbe.NewEncoder(lbe.DefaultConfig())
		}
		enc.AppendCommit(lines[i%64])
	}
}

func BenchmarkLBETrialAppend(b *testing.B) {
	lines := benchLines(64)
	enc := lbe.NewEncoder(lbe.DefaultConfig())
	for i := 0; i < 16; i++ {
		enc.AppendCommit(lines[i])
	}
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enc.Append(lines[16+i%48]) // trial only, never committed
	}
}

func BenchmarkLBEDecompress(b *testing.B) {
	lines := benchLines(32)
	enc := lbe.NewEncoder(lbe.DefaultConfig())
	for _, l := range lines {
		enc.AppendCommit(l)
	}
	data, bits := enc.Bytes(), enc.Bits()
	b.SetBytes(32 * 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := lbe.NewDecoder(lbe.DefaultConfig(), data, bits)
		if _, err := dec.Next(32 * 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPackCompress(b *testing.B) {
	lines := benchLines(64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpack.CompressedBits(lines[i%64])
	}
}

func BenchmarkFPCCompress(b *testing.B) {
	lines := benchLines(64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpc.CompressedBits(lines[i%64])
	}
}

func BenchmarkHuffmanCompress(b *testing.B) {
	lines := benchLines(64)
	s := huffman.NewSampler()
	for _, l := range lines {
		s.SampleLine(l)
	}
	code := huffman.Build(s, huffman.DefaultMaxValues)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.CompressedBits(lines[i%64])
	}
}

// --- cache-operation micro-benchmarks ------------------------------------

func BenchmarkMORCFill(b *testing.B) {
	c := core.New(core.DefaultConfig(128 * 1024))
	lines := benchLines(256)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(i)*cache.LineSize, lines[i%256])
	}
}

func BenchmarkMORCReadHit(b *testing.B) {
	c := core.New(core.DefaultConfig(128 * 1024))
	lines := benchLines(256)
	for i := 0; i < 1024; i++ {
		c.Fill(uint64(i)*cache.LineSize, lines[i%256])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i%1024) * cache.LineSize)
	}
}

func BenchmarkSimulatorMORC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Scheme = sim.MORC
		cfg.WarmupInstr = 50_000
		cfg.MeasureInstr = 100_000
		res := sim.RunSingle("gcc", cfg)
		if res.CompletionCycles == 0 {
			b.Fatal("no cycles")
		}
	}
}

func BenchmarkSimulatorUncompressed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Scheme = sim.Uncompressed
		cfg.WarmupInstr = 50_000
		cfg.MeasureInstr = 100_000
		res := sim.RunSingle("gcc", cfg)
		if res.CompletionCycles == 0 {
			b.Fatal("no cycles")
		}
	}
}

// BenchmarkSimulatorMORCTelemetry is BenchmarkSimulatorMORC with an
// aggressive telemetry grid (one epoch per 10k instructions — 1000x the
// paper's density). Comparing the two quantifies the recorder's overhead;
// the disabled case pays only a nil check per sampler due-check.
func BenchmarkSimulatorMORCTelemetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Scheme = sim.MORC
		cfg.WarmupInstr = 50_000
		cfg.MeasureInstr = 100_000
		cfg.Telemetry = telemetry.Config{Every: 10_000}
		res := sim.RunSingle("gcc", cfg)
		if res.Telemetry == nil {
			b.Fatal("no telemetry")
		}
	}
}

// BenchmarkHotPathAllocs measures allocations on the paths the morclint
// hotalloc pass guards: the retained line copy, a private L1's accesses,
// the MORC fill and read-hit operations stepAccess drives, the whole
// per-access simulation step, and the timeseries NDJSON encoding morcd
// streams. Each leg's allocation count comes from testing.AllocsPerRun
// (exact, not sampled); the b.N loop supplies ns/op. When every leg runs
// (no -bench filter splitting them) the benchmark rewrites
// BENCH_alloc.json, the committed baseline a future allocation
// regression has to justify against:
//
//	go test -bench BenchmarkHotPathAllocs -benchtime 100x .
func BenchmarkHotPathAllocs(b *testing.B) {
	type leg struct {
		name    string
		note    string
		perWhat string  // unit of the normalized metric, e.g. "epoch"
		div     float64 // ops per call of fn, for normalization
		fn      func()
		allocs  float64
		nsPerOp float64
		ran     bool
	}

	line := benchLines(1)[0]
	var cloned []byte
	fillCache := core.New(core.DefaultConfig(128 * 1024))
	readCache := core.New(core.DefaultConfig(128 * 1024))
	warm := benchLines(256)
	for i := 0; i < 1024; i++ {
		readCache.Fill(uint64(i)*cache.LineSize, warm[i%256])
	}
	// A warm L1 holding the 512 most recent sequential lines, each made
	// dirty by a store hit after its fill, so the next fill evicts a
	// dirty line.
	l1 := cache.NewSetAssoc(32*1024, 4, cache.LRU)
	var l1Next uint64
	var victim byte
	l1Access := func() {
		last := (l1Next - 1) * cache.LineSize
		if r := l1.Read(last); r.Hit { // the read hit, then the store hit
			r.Data[l1Next%cache.LineSize]++
			l1.Update(last, r.Data, true)
		}
		for _, wb := range l1.Fill(l1Next*cache.LineSize, line) {
			victim ^= wb.Data[0]
		}
		l1Next++
	}
	for l1Next = 1; l1Next <= 512; {
		l1Access()
	}

	var fillAddr, readAddr uint64
	// Cycle the fill cache's logs until every one has been recycled, so
	// the leg measures steady state rather than first-use growth.
	for ; fillAddr < 1<<16; fillAddr++ {
		fillCache.Fill(fillAddr*cache.LineSize, line)
	}

	// A warm value model: one region's pools built by synthesizing its
	// first 64 lines, the first of which that is not a zero line is
	// read again, and a line past them written back.
	memv := trace.NewMemory(trace.MustGet("gcc"))
	var fetched [cache.LineSize]byte
	const region = 1 << 36
	var synthAddr uint64
	for a := uint64(region); a < region+64*cache.LineSize; a += cache.LineSize {
		memv.ReadLineInto(fetched[:], a)
		if synthAddr == 0 && fetched != [cache.LineSize]byte{} {
			synthAddr = a
		}
	}
	writtenAddr := uint64(region + 64*cache.LineSize)
	memv.WriteLine(writtenAddr, line)
	readLine := func() {
		memv.ReadLineInto(fetched[:], synthAddr)
		memv.ReadLineInto(fetched[:], writtenAddr)
		memv.WriteLine(writtenAddr, fetched[:])
	}

	simCfg := sim.DefaultConfig()
	simCfg.Scheme = sim.MORC
	simCfg.WarmupInstr = 20_000
	simCfg.MeasureInstr = 50_000
	var simRes sim.Result

	series := &telemetry.Series{Scheme: "morc", Every: 10_000}
	for i := 0; i < 64; i++ {
		series.Epochs = append(series.Epochs, telemetry.Epoch{
			Seq: i, EndInstr: uint64(i+1) * 10_000, Instr: 10_000,
			Cycles: 12_000, LLCReads: 400, LLCHits: 300, LLCMisses: 100,
			CompRatio: 2.1, RatioSamples: 4,
			Cores: []telemetry.CoreEpoch{{Instr: 10_000, Cycles: 12_000}},
		})
	}

	legs := []*leg{
		{
			name: "cache/clone-line", perWhat: "clone", div: 1,
			note: "cache.CloneLine, the copy of a line that the check oracle and morcperf's replay retain",
			fn:   func() { cloned = cache.CloneLine(line) },
		},
		{
			name: "cache/l1-access", perWhat: "access", div: 3,
			note: "a warm 32KB 4-way cache.SetAssoc L1: a read hit, an in-place store hit, and a fill that evicts a dirty victim",
			fn:   l1Access,
		},
		{
			name: "core/fill", perWhat: "fill", div: 1,
			note: "core.Cache.Fill on a warm 128KB MORC cache, the stepAccess miss-service path",
			fn: func() {
				fillCache.Fill(fillAddr%(1<<20)*cache.LineSize, line)
				fillAddr++
			},
		},
		{
			name: "core/read-hit", perWhat: "read", div: 1,
			note: "core.Cache.Read hit on a warm 128KB MORC cache, the stepAccess hit path",
			fn: func() {
				readCache.Read(readAddr % 1024 * cache.LineSize)
				readAddr++
			},
		},
		{
			name: "trace/read-line", perWhat: "line", div: 3,
			note: "trace.Memory on a warm value model: ReadLineInto of a synthesized line in a built region, ReadLineInto of a written-back line, and a WriteLine overwrite, the LLC-miss path's memory reads and write-backs",
			fn:   readLine,
		},
		{
			name: "sim/run-single", perWhat: "kinstr", div: 70, // 70k instructions per run
			note: "sim.RunSingle gcc/MORC at 20k warmup + 50k measured instructions; normalized per 1000 instructions, so the number is the steady-state stepAccess cost plus amortized setup",
			fn:   func() { simRes = sim.RunSingle("gcc", simCfg) },
		},
		{
			name: "telemetry/ndjson", perWhat: "epoch", div: 64,
			note: "telemetry.Series.WriteNDJSON over 64 single-core epochs, the morcd ?format=ndjson encode path",
			fn: func() {
				if err := series.WriteNDJSON(io.Discard); err != nil {
					b.Fatal(err)
				}
			},
		},
	}

	for _, l := range legs {
		l := l
		b.Run(l.name, func(b *testing.B) {
			l.allocs = testing.AllocsPerRun(10, l.fn)
			start := time.Now()
			for i := 0; i < b.N; i++ {
				l.fn()
			}
			l.nsPerOp = float64(time.Since(start).Nanoseconds()) / float64(b.N)
			l.ran = true
			b.ReportAllocs()
			b.ReportMetric(l.allocs/l.div, "allocs/"+l.perWhat)
		})
	}
	_, _, _ = cloned, simRes, victim

	// A retained copy is one allocation and nothing more. The L1 copies
	// into its arena and returns victims through its own buffer, so its
	// accesses allocate nothing. A MORC fill allocates nothing: the log's
	// record holds the line's bytes, trial compression into every active
	// log is allocation-free, write-backs go out through the cache's own
	// buffers, and a MORC read hit returns the record's bytes. The value
	// model synthesizes into the caller's buffer and overwrites a written
	// line in place.
	for _, l := range legs {
		if l.ran && l.name == "cache/clone-line" && l.allocs != 1 {
			b.Fatalf("CloneLine allocates %.0f objects per clone, want exactly 1", l.allocs)
		}
		if l.ran && l.name == "cache/l1-access" && l.allocs != 0 {
			b.Fatalf("a warm L1's read hit, store hit and dirty eviction allocate %.0f objects, want 0", l.allocs)
		}
		if l.ran && l.name == "core/fill" && l.allocs != 0 {
			b.Fatalf("a warm MORC fill allocates %.0f objects, want 0", l.allocs)
		}
		if l.ran && l.name == "core/read-hit" && l.allocs != 0 {
			b.Fatalf("a warm MORC read hit allocates %.0f objects, want 0", l.allocs)
		}
		if l.ran && l.name == "trace/read-line" && l.allocs != 0 {
			b.Fatalf("a warm value model's two line reads and one overwrite allocate %.0f objects, want 0", l.allocs)
		}
	}

	for _, l := range legs {
		if !l.ran {
			return // a -bench filter split the legs; keep the committed file
		}
	}
	rep := bench.New("hotpath-allocs", runtime.NumCPU())
	for _, l := range legs {
		rep.Add(bench.Entry{
			Name:        l.name,
			NsPerOp:     l.nsPerOp,
			AllocsPerOp: l.allocs,
			Metrics:     map[string]float64{"allocs_per_" + l.perWhat: l.allocs / l.div},
			Note:        l.note,
		})
	}
	rep.Note = "go test -bench BenchmarkHotPathAllocs -benchtime 100x: allocation baselines for the paths the morclint hotalloc pass guards. allocs_per_op is exact (testing.AllocsPerRun); the per-unit metric divides by the operations one call performs. The SSE frame encoder is benchmarked in internal/server (BenchmarkWriteEvent) against a hard <=4 allocs/frame bound."
	if err := rep.WriteFile("BENCH_alloc.json"); err != nil {
		b.Fatal(err)
	}
}

// Example of scheme comparison at bench time, for quick what-ifs:
//
//	go test -bench BenchmarkSchemeRatio -benchtime 1x -v
func BenchmarkSchemeRatio(b *testing.B) {
	for _, sch := range sim.ComparedSchemes() {
		b.Run(sch.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig()
				cfg.Scheme = sch
				cfg.WarmupInstr = 100_000
				cfg.MeasureInstr = 100_000
				res := sim.RunSingle("gcc", cfg)
				b.ReportMetric(res.CompRatio, "ratio")
			}
		})
	}
}
