// Package energy implements the paper's memory-subsystem energy model
// (Table 7, 32nm): per-event dynamic energies for the L1s, the LLC data
// arrays, the compression/decompression engines, and off-chip DRAM
// accesses, plus static power integrated over execution time.
//
// Decompression energy is charged per 64 bytes of decompressed output.
// For the intra-line schemes that equals one charge per hit; for MORC it
// grows with log position, reproducing the paper's observation (§5.3)
// that MORC's decompression energy is more substantial because it
// decompresses from the beginning of the stream.
package energy

const (
	pJ = 1e-12
	nJ = 1e-9
	mW = 1e-3
)

// Engine is one compression engine's Table 7 energies, in joules.
type Engine struct {
	CompressJ   float64 // per compression-engine invocation (one line)
	DecompressJ float64 // per 64B of decompressed output
}

// The Table 7 engines. An uncompressed LLC has the zero Engine.
var (
	CPack = Engine{CompressJ: 50.0 * pJ, DecompressJ: 37.5 * pJ}
	SC2   = Engine{CompressJ: 144.0 * pJ, DecompressJ: 148.0 * pJ}
	LBE   = Engine{CompressJ: 200.0 * pJ, DecompressJ: 150.0 * pJ}
)

// Params holds Table 7's constants. All energies are joules, powers are
// watts.
type Params struct {
	Engine              // the LLC's compression engine
	L1StaticW   float64 // 7.0 mW per core
	LLCStaticW  float64 // 20.0 mW per core slice
	DRAMStaticW float64 // 10.9 mW per core
	L1AccessJ   float64 // 61.0 pJ per line access
	LLCDataJ    float64 // 32.0 pJ per line access
	DRAMAccessJ float64 // 74.8 nJ per 64B off-chip access
	ClockHz     float64 // to convert cycles to seconds
}

// TableDefaults returns the Table 7 constants shared by all schemes,
// with no engine: the caller sets the LLC's.
func TableDefaults() Params {
	return Params{
		L1StaticW:   7.0 * mW,
		LLCStaticW:  20.0 * mW,
		DRAMStaticW: 10.9 * mW,
		L1AccessJ:   61.0 * pJ,
		LLCDataJ:    32.0 * pJ,
		DRAMAccessJ: 74.8 * nJ,
		ClockHz:     2e9,
	}
}

// Events are the counts a simulation produces for one core (or summed
// over cores with Cores set accordingly).
type Events struct {
	Cycles            uint64 // execution time in core cycles
	Cores             int    // number of cores contributing static power
	L1Accesses        uint64 // loads+stores reaching the L1
	LLCAccesses       uint64 // reads + fills + write-backs at the LLC
	DRAMAccesses      uint64 // 64B transfers to/from memory
	Compressions      uint64 // compression-engine invocations
	DecompressedBytes uint64 // decompressed output bytes
}

// Breakdown is the energy split the paper plots in Figure 9b.
type Breakdown struct {
	StaticJ     float64 // L1 + LLC static
	DRAMStaticJ float64
	DRAMJ       float64 // dynamic off-chip access energy
	SRAMJ       float64 // L1 + LLC dynamic
	CompressJ   float64
	DecompressJ float64
}

// Total returns the summed energy in joules.
func (b Breakdown) Total() float64 {
	return b.StaticJ + b.DRAMStaticJ + b.DRAMJ + b.SRAMJ + b.CompressJ + b.DecompressJ
}

// Compute applies the model.
func Compute(p Params, ev Events) Breakdown {
	seconds := float64(ev.Cycles) / p.ClockHz
	cores := float64(ev.Cores)
	if cores == 0 {
		cores = 1
	}
	return Breakdown{
		StaticJ:     seconds * cores * (p.L1StaticW + p.LLCStaticW),
		DRAMStaticJ: seconds * cores * p.DRAMStaticW,
		DRAMJ:       float64(ev.DRAMAccesses) * p.DRAMAccessJ,
		SRAMJ:       float64(ev.L1Accesses)*p.L1AccessJ + float64(ev.LLCAccesses)*p.LLCDataJ,
		CompressJ:   float64(ev.Compressions) * p.CompressJ,
		DecompressJ: float64(ev.DecompressedBytes) / 64 * p.DecompressJ,
	}
}
