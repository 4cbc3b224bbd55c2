// Package trace synthesizes the memory-access workloads the evaluation
// runs. The paper traces SPEC CPU2006 with Pin; this repository has no
// proprietary traces, so each benchmark is modelled by a Profile — a
// small set of parameters controlling its address behaviour (working-set
// size, streaming vs. pointer-chasing mix, hot-set locality, store
// ratio, memory-reference density) and its value behaviour (zero lines,
// inter-line duplication pools at 256/128/64/32-bit granularity, narrow
// integers, floating-point structure).
//
// The profiles are calibrated so each named workload reproduces the
// qualitative behaviour the paper reports for it: `gcc` and `zeusmp` are
// zero-heavy and highly compressible, `cactusADM`/`gamess`/`povray` have
// large-granule FP duplication (the m256-heavy bars of Figure 7),
// `h264ref` leans on narrow values, `bzip2`/`milc` are nearly
// incompressible, `mcf`/`lbm`/`bwaves` are bandwidth-bound, and
// `gamess`/`povray`/`tonto` are compute-bound. EXPERIMENTS.md records
// the paper-vs-measured comparison for every figure.
//
// Everything is deterministic given (profile, seed): the same workload
// replayed against different cache schemes sees the identical access and
// value stream.
package trace

// Kind is the access type.
type Kind uint8

// Access kinds.
const (
	Load Kind = iota
	Store
)

// Access is one memory reference plus the count of non-memory
// instructions executed before it (the in-order core model charges 1 CPI
// for those, Table 5).
type Access struct {
	Kind   Kind
	Addr   uint64
	NonMem uint32
}

// Instructions returns how many instructions this access accounts for
// (itself plus the preceding non-memory instructions).
func (a Access) Instructions() uint64 { return uint64(a.NonMem) + 1 }
