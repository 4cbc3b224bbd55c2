package exp

import (
	"morc/internal/cache"
	"morc/internal/core"
	"morc/internal/energy"
)

func init() {
	register(Experiment{
		ID:    "tab1",
		Title: "Energy of on-chip and off-chip operations on 64b of data",
		Run:   runTab1,
	})
	register(Experiment{
		ID:    "tab4",
		Title: "Tag/metadata/engine overheads normalized to cache capacity",
		Run:   runTab4,
	})
	register(Experiment{
		ID:    "tab5",
		Title: "System configuration (Table 5)",
		Run:   runTab5,
	})
	register(Experiment{
		ID:    "tab7",
		Title: "Energy simulation parameters (Table 7)",
		Run:   runTab7,
	})
}

// runTab1 reprints the paper's Table 1 (motivational constants).
func runTab1(Budget) []*Table {
	t := &Table{ID: "tab1", Title: "Operation energy (pJ) and scale vs 64b comparison",
		Columns: []string{"operation", "energy pJ", "scale x"}}
	t.AddRow("64b comparison (65nm)", 2, 1)
	t.AddRow("64b access 128KB SRAM (32nm)", 4, 2)
	t.AddRow("64b floating point op (45nm)", 45, 22.5)
	t.AddRow("64b transfer 15mm on-chip", 375, 185)
	t.AddRow("64b transfer across main-board", 2500, 1250)
	t.AddRow("64b access to DDR3", 9350, 4675)
	return []*Table{t}
}

// runTab4 computes the overhead analysis of Table 4 from the actual
// configurations: tags, metadata (LMT or set metadata), both normalized
// to a 128KB cache with a 48-bit physical address space.
func runTab4(Budget) []*Table {
	const (
		cacheBytes = 128 * 1024
		lines      = cacheBytes / cache.LineSize // 2048
		tagBits    = 40.0                        // paper's assumption
	)
	capBits := float64(cacheBytes * 8)
	t := &Table{ID: "tab4", Title: "Overheads (% of cache capacity)",
		Columns: []string{"scheme", "Tags %", "Metadata %", "Tags+Meta %", "Dict bytes"}}

	// Prior work per the paper. The Tags column counts tag storage beyond
	// the uncompressed baseline's: Adaptive doubles the tags (+1x),
	// Decoupled folds its super-tags into metadata (0 extra), SC2
	// quadruples them (+3x). Metadata percentages are the paper's.
	adaptTags := 1 * lines * tagBits / capBits * 100 // 7.81%
	t.AddRow("Adaptive", adaptTags, 10.93, adaptTags+10.93, 128)
	t.AddRow("Decoupled", 0, 8.59, 8.59, 128)
	sc2Tags := 3 * lines * tagBits / capBits * 100 // 23.43%
	t.AddRow("SC2", sc2Tags, 10.15, sc2Tags+10.15, 18*1024)

	// MORC from our default configuration.
	mc := core.DefaultConfig(cacheBytes)
	numLogs := mc.CacheBytes / mc.LogBytes
	morcTags := float64(numLogs*mc.TagBytesPerLog*8) / capBits * 100
	// LMT: 11 bits per entry (2 state + 9 log index), 8x entries.
	lmtBits := float64(lines*mc.LMTFactor) * 11
	morcMeta := lmtBits / capBits * 100
	dict := 1024.0 // 512B compression + 512B decompression LBE dictionaries
	t.AddRow("MORC", morcTags, morcMeta, morcTags+morcMeta, dict)
	t.AddRow("MORCMerged", 0, morcMeta, morcMeta, dict)
	return []*Table{t}
}

// runTab5 prints the evaluated system configuration.
func runTab5(Budget) []*Table {
	t := &Table{ID: "tab5", Title: "System configuration",
		Columns: []string{"component", "value"}}
	t.AddRow("Core clock (GHz)", 2)
	t.AddRow("L1 size (KB, private)", 32)
	t.AddRow("L1 ways", 4)
	t.AddRow("L1 latency (cycles)", 1)
	t.AddRow("LLC size per core (KB, shared non-inclusive)", 128)
	t.AddRow("LLC ways (uncompressed)", 8)
	t.AddRow("LLC latency (cycles)", 14)
	t.AddRow("Block size (B)", 64)
	t.AddRow("Default per-core bandwidth (MB/s)", 100)
	t.AddRow("Decompression B/cycle C-Pack", 8)
	t.AddRow("Decompression B/cycle SC2", 8)
	t.AddRow("Decompression B/cycle LBE", 16)
	t.AddRow("CGMT threads", 4)
	return []*Table{t}
}

// runTab7 prints the energy model constants the simulator charges:
// energy.TableDefaults and the three engines.
func runTab7(Budget) []*Table {
	const pJ, nJ, mW = 1e-12, 1e-9, 1e-3
	p := energy.TableDefaults()
	t := &Table{ID: "tab7", Title: "Energy model (Table 7)",
		Columns: []string{"parameter", "value"}}
	t.AddRow("L1 static power (mW)", p.L1StaticW/mW)
	t.AddRow("LLC static power (mW)", p.LLCStaticW/mW)
	t.AddRow("DRAM static power per core (mW)", p.DRAMStaticW/mW)
	t.AddRow("L1 access energy (pJ)", p.L1AccessJ/pJ)
	t.AddRow("LLC data energy (pJ)", p.LLCDataJ/pJ)
	t.AddRow("C-Pack compression energy (pJ)", energy.CPack.CompressJ/pJ)
	t.AddRow("C-Pack decompression energy (pJ)", energy.CPack.DecompressJ/pJ)
	t.AddRow("SC2 compression energy (pJ)", energy.SC2.CompressJ/pJ)
	t.AddRow("SC2 decompression energy (pJ)", energy.SC2.DecompressJ/pJ)
	t.AddRow("LBE compression energy (pJ)", energy.LBE.CompressJ/pJ)
	t.AddRow("LBE decompression energy (pJ per 64B)", energy.LBE.DecompressJ/pJ)
	t.AddRow("64B off-chip access energy (nJ)", p.DRAMAccessJ/nJ)
	return []*Table{t}
}
