package energy

import (
	"math"
	"testing"
)

func almost(a, b float64) bool {
	if b == 0 {
		return math.Abs(a) < 1e-18
	}
	return math.Abs(a-b)/math.Abs(b) < 1e-9
}

func TestTableDefaults(t *testing.T) {
	p := TableDefaults()
	if !almost(p.L1AccessJ, 61e-12) || !almost(p.DRAMAccessJ, 74.8e-9) {
		t.Fatalf("wrong Table 7 constants: %+v", p)
	}
}

// withEngine returns the shared Table 7 constants with engine e.
func withEngine(e Engine) Params {
	p := TableDefaults()
	p.Engine = e
	return p
}

func TestEngines(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		e                    Engine
		compress, decompress float64
	}{
		{"C-Pack", CPack, 50e-12, 37.5e-12},
		{"SC2", SC2, 144e-12, 148e-12},
		{"LBE", LBE, 200e-12, 150e-12},
	} {
		if !almost(tc.e.CompressJ, tc.compress) || !almost(tc.e.DecompressJ, tc.decompress) {
			t.Errorf("%s engine energies %+v, want %g J per compression and %g J per 64B", tc.name, tc.e, tc.compress, tc.decompress)
		}
	}
	if e := TableDefaults().Engine; e != (Engine{}) {
		t.Fatalf("the shared constants carry an engine: %+v", e)
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	p := withEngine(LBE)
	ev := Events{
		Cycles: 2e9, Cores: 1, L1Accesses: 1e6, LLCAccesses: 1e5,
		DRAMAccesses: 1e4, Compressions: 1e5, DecompressedBytes: 64e5,
	}
	b := Compute(p, ev)
	sum := b.StaticJ + b.DRAMStaticJ + b.DRAMJ + b.SRAMJ + b.CompressJ + b.DecompressJ
	if !almost(b.Total(), sum) {
		t.Fatal("Total != sum of parts")
	}
	if b.Total() <= 0 {
		t.Fatal("non-positive energy")
	}
}

func TestStaticScalesWithTime(t *testing.T) {
	p := withEngine(LBE)
	b1 := Compute(p, Events{Cycles: 1e9, Cores: 1})
	b2 := Compute(p, Events{Cycles: 2e9, Cores: 1})
	if !almost(b2.StaticJ, 2*b1.StaticJ) {
		t.Fatal("static energy not linear in time")
	}
	// One second at 2GHz: 27mW of L1+LLC static = 13.5mJ... at 1e9 cycles
	// = 0.5s: 13.5mJ.
	if !almost(b1.StaticJ, 0.5*27e-3) {
		t.Fatalf("static = %g J", b1.StaticJ)
	}
}

func TestDRAMDominatesForMissHeavyRuns(t *testing.T) {
	// Sanity: a memory access costs ~1000x an on-chip access (Table 1's
	// motivation), so DRAM dynamic energy dominates SRAM for equal counts.
	p := TableDefaults()
	b := Compute(p, Events{Cycles: 1, Cores: 1, L1Accesses: 1000, LLCAccesses: 1000, DRAMAccesses: 1000})
	if b.DRAMJ < 100*b.SRAMJ {
		t.Fatalf("DRAM %g not ≫ SRAM %g", b.DRAMJ, b.SRAMJ)
	}
}

func TestDecompressionPerOutputByte(t *testing.T) {
	p := withEngine(LBE)
	b1 := Compute(p, Events{Cycles: 1, Cores: 1, DecompressedBytes: 64})
	b8 := Compute(p, Events{Cycles: 1, Cores: 1, DecompressedBytes: 8 * 64})
	if !almost(b8.DecompressJ, 8*b1.DecompressJ) {
		t.Fatal("decompression energy not linear in output")
	}
	if !almost(b1.DecompressJ, 150e-12) {
		t.Fatalf("one line = %g J", b1.DecompressJ)
	}
}

func TestZeroCoresDefaultsToOne(t *testing.T) {
	b := Compute(TableDefaults(), Events{Cycles: 2e9})
	if b.StaticJ <= 0 {
		t.Fatal("zero-core events produced no static energy")
	}
}
