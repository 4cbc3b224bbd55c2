package energy

import (
	"math"
	"testing"
)

// TestZeroAccessRunIsAllStatic: a run with zero events of every dynamic
// kind must charge only static energy, and a zero-cycle run must cost
// exactly nothing.
func TestZeroAccessRunIsAllStatic(t *testing.T) {
	p := withEngine(LBE)
	b := Compute(p, Events{Cycles: 1_000_000, Cores: 4})
	if b.DRAMJ != 0 || b.SRAMJ != 0 || b.CompressJ != 0 || b.DecompressJ != 0 {
		t.Fatalf("zero-access run charged dynamic energy: %+v", b)
	}
	if b.StaticJ <= 0 || b.DRAMStaticJ <= 0 {
		t.Fatalf("zero-access run has no static energy: %+v", b)
	}
	if got := Compute(p, Events{}); got.Total() != 0 {
		t.Fatalf("empty run costs %v J", got.Total())
	}
}

// TestOverflowSizedCountersStayFinite: counters at the top of the
// uint64 range must still produce finite (if astronomically large)
// energies — no NaN or Inf from the float conversions.
func TestOverflowSizedCountersStayFinite(t *testing.T) {
	p := withEngine(SC2)
	ev := Events{
		Cycles:            math.MaxUint64,
		Cores:             1 << 20,
		L1Accesses:        math.MaxUint64,
		LLCAccesses:       math.MaxUint64,
		DRAMAccesses:      math.MaxUint64,
		Compressions:      math.MaxUint64,
		DecompressedBytes: math.MaxUint64,
	}
	b := Compute(p, ev)
	for _, v := range []float64{b.StaticJ, b.DRAMStaticJ, b.DRAMJ, b.SRAMJ, b.CompressJ, b.DecompressJ, b.Total()} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("overflow-sized counters produced a non-finite component: %+v", b)
		}
	}
}
