package trace

import (
	"math"

	"morc/internal/rng"
)

// SynthGen generates the address stream for one profile: a mix of
// sequential streams, a hot set, and uniform references over the working
// set, with stores and non-memory instruction gaps per the profile.
type SynthGen struct {
	prof      Profile
	draws     genDraws
	r         rng.RNG
	base      uint64 // working-set base address
	hotBase   uint64
	stackBase uint64
	cursors   []uint64 // sequential stream positions (offsets within WS)

	curStream int // stream serving the current burst
	burstLeft int

	objCursor uint64 // current object walk position (offset within WS)
	objLeft   int    // references remaining in the current object walk
}

// genDraws are a profile's address-stream probabilities as thresholds,
// built once per generator.
type genDraws struct {
	burst, objLines, nonMem rng.Threshold // geometric: burst length, object lines, instruction gap
	// store[c] decides load vs. store for component c; finish draws it
	// only where hasStore[c] (the component has references at all).
	store    [3]rng.Threshold
	hasStore [3]bool
}

// pPhaseJump is the chance a stream jumps to a new region at a burst.
var pPhaseJump = rng.ThresholdOf(0.01)

// regionBase spaces workloads apart in the address space. Every copy of
// one program starts at the same base, so in a shared LLC the copies of
// a multi-program run share lines although each core has its own
// generator and value model: ROADMAP's item on giving each core its own
// physical addresses is the fix.
const regionBase = 1 << 36

// NewSynthGen builds a generator. Streams of the same profile with
// different seeds model the paper's separate reference inputs.
func NewSynthGen(p Profile) *SynthGen {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &SynthGen{
		prof: p,
		draws: genDraws{
			burst:    rng.ThresholdOf(1 / float64(p.StreamBurst)),
			objLines: rng.ThresholdOf(1 / float64(p.ObjLines)),
			nonMem:   rng.ThresholdOf(p.MemRefFrac),
		},
		base: regionBase + (hashName(p.Name)%1024)*(1<<30),
	}
	for comp := compStack; comp <= compCold; comp++ {
		if pStore, ok := storeProb(&p, comp); ok {
			g.draws.store[comp], g.draws.hasStore[comp] = rng.ThresholdOf(pStore), true
		}
	}
	g.r.Seed(p.Seed ^ 0x47454e) // "GEN"
	g.hotBase = g.base + uint64(p.WorkingSet)/2
	g.hotBase -= g.hotBase % 64
	// The stack sits just above the working set.
	g.stackBase = g.base + uint64(p.WorkingSet)
	g.stackBase -= g.stackBase % 64
	g.cursors = make([]uint64, p.Streams)
	for i := range g.cursors {
		g.cursors[i] = g.r.Uint64n(uint64(p.WorkingSet))
	}
	return g
}

// Next returns the next access of the unbounded stream; the simulator
// stops after a configured instruction count.
func (g *SynthGen) Next() Access {
	p := &g.prof
	var addr uint64
	comp := compCold
	sel := g.r.Float64()
	if sel < p.StackFrac {
		// Stack: a tiny, L1-resident region (frames and locals).
		addr = g.stackBase + g.r.Uint64n(stackBytes)
		return g.finish(addr, compStack)
	}
	// Renormalize the remaining selector over seq/hot/random.
	sel = (sel - p.StackFrac) / (1 - p.StackFrac)
	switch {
	case sel < p.SeqFrac:
		// Loop-nest behaviour: one stream serves a whole burst of
		// references before another takes over, so the resulting LLC miss
		// stream is largely address-sequential (the temporal locality
		// MORC's tag compression exploits).
		if g.burstLeft <= 0 {
			g.curStream = g.r.Intn(len(g.cursors))
			g.burstLeft = g.r.Trials(g.draws.burst)
			// Occasional phase change: the stream jumps to a new region.
			if g.r.Chance(pPhaseJump) {
				g.cursors[g.curStream] = g.r.Uint64n(uint64(p.WorkingSet))
			}
		}
		g.burstLeft--
		s := g.curStream
		addr = g.base + g.cursors[s]
		g.cursors[s] = (g.cursors[s] + uint64(p.SeqStride)) % uint64(p.WorkingSet)
	case sel < p.SeqFrac+p.HotFrac:
		addr = g.hotBase + g.r.Uint64n(uint64(p.HotSet))
		comp = compHot
	default:
		// Skewed random object walks: pick a location concentrated near
		// the start of the working set (reuse gradient), then walk one
		// object sequentially so misses arrive in short address-
		// sequential runs.
		if g.objLeft <= 0 {
			u := math.Pow(g.r.Float64(), p.Skew)
			off := uint64(u * float64(p.WorkingSet))
			if off >= uint64(p.WorkingSet) {
				off = uint64(p.WorkingSet) - 1
			}
			g.objCursor = off &^ 63 // objects start line-aligned
			lines := g.r.Trials(g.draws.objLines)
			g.objLeft = lines * 8 // 8-byte walk over the object
		}
		g.objLeft--
		addr = g.base + g.objCursor%uint64(p.WorkingSet)
		g.objCursor += 8
	}
	return g.finish(addr, comp)
}

// reference components, for store targeting.
type component int

const (
	compStack component = iota
	compHot
	compCold
)

// stackBytes is the stack region size: small enough to stay L1-resident.
const stackBytes = 4 * 1024

// stackStoreShare is the share of all stores that hit the stack; the
// remainder splits between the hot set and cold data by StoreSpread.
const stackStoreShare = 0.60

// finish aligns the address, decides load vs store (stores concentrate on
// the stack, then the hot set), and attaches the instruction gap.
func (g *SynthGen) finish(addr uint64, comp component) Access {
	addr &^= 7 // 8-byte aligned references
	kind := Load
	if g.draws.hasStore[comp] && g.r.Chance(g.draws.store[comp]) {
		kind = Store
	}
	nonMem := uint32(g.r.Trials(g.draws.nonMem) - 1)
	return Access{Kind: kind, Addr: addr, NonMem: nonMem}
}

// storeProb is the chance a reference of component comp is a store:
// its share of all stores over its share of all references. ok is false
// when the component has no references (finish then makes no draw).
func storeProb(p *Profile, comp component) (pStore float64, ok bool) {
	var share, pComp float64
	switch comp {
	case compStack:
		share, pComp = stackStoreShare, p.StackFrac
	case compHot:
		share = (1 - stackStoreShare) * (1 - p.StoreSpread)
		pComp = (1 - p.StackFrac) * p.HotFrac
	default:
		share = (1 - stackStoreShare) * p.StoreSpread
		pComp = (1 - p.StackFrac) * (1 - p.HotFrac)
	}
	if p.StackFrac == 0 {
		// Without a stack its store share folds into the hot set.
		if comp == compHot {
			share += stackStoreShare * (1 - p.StoreSpread)
		} else if comp == compCold {
			share += stackStoreShare * p.StoreSpread
		}
	}
	if !(pComp > 0) {
		return 0, false
	}
	return p.StoreFrac * share / pComp, true
}
