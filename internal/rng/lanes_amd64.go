package rng

// lanes is whether Trials hands long runs to scan16: the CPU has
// AVX-512F (the lane arithmetic) and AVX-512DQ (VPMULLQ, byte masks),
// and the OS saves the opmask and ZMM registers across context switches.
var lanes = hasAVX512()

// scan16 tests the draws of the states s+γ, s+2γ, …, s+16·blocks·γ,
// sixteen at a time in two ZMM registers, and returns the 1-based index
// of the first whose mixed value is below t11, or 0 if none is. Trials
// passes t11 = t<<11, so that the test is its mix(state)>>11 < t
// (exact for t < 2⁵³). blocks must be at least 1.
func scan16(s, t11 uint64, blocks int) int

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the register state the OS saves.
func xgetbv() (eax, edx uint32)

func hasAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27 // CPUID.1:ECX: XGETBV is enabled
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	// XCR0: SSE, AVX, opmask, ZMM0–15 upper halves, ZMM16–31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17 // CPUID.(7,0):EBX
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(avx512f|avx512dq) == avx512f|avx512dq
}
