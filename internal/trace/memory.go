package trace

import (
	"encoding/binary"
	"fmt"

	"morc/internal/cache"
	"morc/internal/rng"
)

// Memory is the value model and backing store for one workload: it
// synthesizes deterministic line contents for never-written addresses
// according to the profile, and remembers lines written back by the
// cache hierarchy. It also applies store mutations, keeping write-back
// data largely compressible (the paper observes write-back data
// compresses comparably to fill data, §5.4.2).
type Memory struct {
	prof    Profile
	draws   valueDraws
	written map[uint64][]byte
	// pools hold the duplication chunks of each address region, one
	// pool per granularity level, each instantiated lazily: neighboring
	// lines share a small vocabulary (which windowed inter-line
	// compression can exploit), while the global vocabulary across
	// regions is large (which bounds what a global frequency dictionary
	// like SC2's can capture).
	pools  map[uint64]*regionPools
	fpPool [][]byte // 4-byte exponent-word pool for FP-like data (global)
	storeR rng.RNG

	ReadLines  uint64 // lines synthesized or fetched
	WriteLines uint64 // lines written back
}

// regionPools are one region's chunk pools, indexed by level; a nil
// pool is not built yet.
type regionPools [4][][]byte

// valueDraws are a profile's value-model probabilities as thresholds,
// built once per Memory.
type valueDraws struct {
	zeroLine, zeroWord, narrow, storeComp rng.Threshold
	gran                                  [4]rng.Threshold
}

// The value model's fixed probabilities, as thresholds.
var (
	pPoolPair    = rng.ThresholdOf(0.75)  // a pool entry joins two child entries
	pNarrowHead  = rng.ThresholdOf(0.4)   // a narrow word comes from the frequent head
	pFPHighWord  = rng.ThresholdOf(0.7)   // an FP high word comes from the exponent pool
	pStorePool   = rng.ThresholdOf(0.5)   // a compressible store copies a pool chunk
	gNarrowHead  = rng.ThresholdOf(0.05)  // geometric: the narrow head's values
	gNarrowTail  = rng.ThresholdOf(0.002) // geometric: the narrow tail's values
	gStoreNarrow = rng.ThresholdOf(0.01)  // geometric: a compressible store's narrow value
)

// RegionBytes is the granularity of value-vocabulary locality.
const RegionBytes = 128 * 1024

// regionPools returns region's pools, adding an empty set on first use.
func (m *Memory) regionPools(region uint64) *regionPools {
	rp := m.pools[region]
	if rp == nil {
		rp = new(regionPools)
		m.pools[region] = rp
	}
	return rp
}

// pool returns region's chunk pool at level, building it on first use.
// Pools are hierarchical: most larger-granule entries are concatenations
// of two entries one level down, mirroring the self-similarity of real
// data (records made of fields, stencil blocks made of repeated values).
// This keeps a region's 32-bit vocabulary small enough for windowed
// dictionaries to cover. Each pool's generator is seeded by (level,
// region) alone, so the order pools are built in changes no draw.
func (m *Memory) pool(rp *regionPools, level int, region uint64) [][]byte {
	if p := rp[level]; p != nil {
		return p
	}
	r := rng.New(m.prof.Seed ^ mix(0x504f4f4c^uint64(level)<<40^region*2654435761))
	p := make([][]byte, m.prof.PoolSizes[level])
	if level == 3 {
		for i := range p {
			p[i] = m.genChunk(r, poolGran[level])
		}
	} else {
		child := m.pool(rp, level+1, region)
		for i := range p {
			if r.Chance(pPoolPair) {
				b := make([]byte, 0, poolGran[level])
				b = append(b, child[r.Intn(len(child))]...)
				b = append(b, child[r.Intn(len(child))]...)
				p[i] = b
			} else {
				p[i] = m.genChunk(r, poolGran[level])
			}
		}
	}
	rp[level] = p
	return p
}

// granBytes for pool level: 32, 16, 8, 4.
var poolGran = [4]int{32, 16, 8, 4}

// NewMemory builds the value model for a profile.
func NewMemory(p Profile) *Memory {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	m := &Memory{
		prof: p,
		draws: valueDraws{
			zeroLine:  rng.ThresholdOf(p.ZeroLineFrac),
			zeroWord:  rng.ThresholdOf(p.ZeroWordFrac),
			narrow:    rng.ThresholdOf(p.NarrowFrac),
			storeComp: rng.ThresholdOf(p.StoreComp),
		},
		written: make(map[uint64][]byte),
		pools:   make(map[uint64]*regionPools),
	}
	for i, w := range p.GranWeights {
		m.draws.gran[i] = rng.ThresholdOf(w)
	}
	m.storeR.Seed(p.Seed ^ 0x53544f5245)  // "STORE"
	poolR := rng.New(p.Seed ^ 0x504f4f4c) // "POOL"
	m.fpPool = make([][]byte, 16)
	for i := range m.fpPool {
		b := make([]byte, 4)
		// Double-precision high words: same sign/exponent neighborhood.
		binary.LittleEndian.PutUint32(b, 0x3FE00000|uint32(poolR.Intn(1<<12)))
		m.fpPool[i] = b
	}
	return m
}

// genChunk produces a pool chunk of g bytes following the word model.
func (m *Memory) genChunk(r *rng.RNG, g int) []byte {
	b := make([]byte, g)
	for off := 0; off < g; off += 4 {
		m.genWord(r, b[off:off+4], off/4)
	}
	return b
}

// genWord fills a 4-byte word: zero, narrow integer, FP-structured, or
// random.
func (m *Memory) genWord(r *rng.RNG, dst []byte, wordIdx int) {
	switch {
	case r.Chance(m.draws.zeroWord):
		for i := range dst {
			dst[i] = 0
		}
	case r.Chance(m.draws.narrow):
		// Narrow integers: a frequent head (counters, flags, enum-like
		// values a global frequency dictionary captures) plus a diverse
		// tail (sizes, offsets, ids) that only significance-based codes
		// like LBE's u8/u16 compress.
		if r.Chance(pNarrowHead) {
			binary.LittleEndian.PutUint32(dst, uint32(r.Trials(gNarrowHead)))
		} else {
			binary.LittleEndian.PutUint32(dst, uint32(r.Trials(gNarrowTail)))
		}
	case m.prof.FPLike && wordIdx%2 == 1 && r.Chance(pFPHighWord):
		// High word of a little-endian double: clustered exponents.
		copy(dst, m.fpPool[r.Intn(len(m.fpPool))])
	default:
		binary.LittleEndian.PutUint32(dst, r.Uint32())
	}
}

// ReadLine returns the 64-byte line at addr (line-aligned internally).
func (m *Memory) ReadLine(addr uint64) []byte {
	la := cache.LineAddr(addr)
	m.ReadLines++
	if d, ok := m.written[la]; ok {
		out := make([]byte, cache.LineSize)
		copy(out, d)
		return out
	}
	return m.synthLine(la)
}

// WriteLine records a line written back from the cache hierarchy.
func (m *Memory) WriteLine(addr uint64, data []byte) {
	if len(data) != cache.LineSize {
		panic(fmt.Sprintf("trace: WriteLine of %d bytes", len(data)))
	}
	la := cache.LineAddr(addr)
	m.WriteLines++
	m.written[la] = cache.CloneLine(data)
}

// synthLine deterministically generates the pristine contents of a line.
func (m *Memory) synthLine(la uint64) []byte {
	r := rng.New(m.prof.Seed ^ mix(la))
	line := make([]byte, cache.LineSize)
	if r.Chance(m.draws.zeroLine) {
		return line
	}
	m.fillRegion(r, line, 0, la/RegionBytes)
	return line
}

// fillRegion fills line[off:] hierarchically: at each granule boundary it
// may draw the whole granule from that granularity's pool (inter-line
// duplication) or recurse to smaller granules. The region's pools are
// looked up once, at the first pooled granule.
func (m *Memory) fillRegion(r *rng.RNG, line []byte, off int, region uint64) {
	var rp *regionPools
	for off < len(line) {
		placed := false
		for lvl := 0; lvl < 4; lvl++ {
			g := poolGran[lvl]
			if off%g != 0 || off+g > len(line) {
				continue
			}
			if r.Chance(m.draws.gran[lvl]) {
				if rp == nil {
					rp = m.regionPools(region)
				}
				p := m.pool(rp, lvl, region)
				copy(line[off:off+g], p[r.Intn(len(p))])
				off += g
				placed = true
				break
			}
			if g == 4 {
				m.genWord(r, line[off:off+4], off/4)
				off += 4
				placed = true
				break
			}
		}
		if !placed {
			// Defensive: cannot happen (the 4-byte level always places).
			panic("trace: fillRegion made no progress")
		}
	}
}

// ApplyStore mutates line (the current cached value of addr) in place to
// reflect one store. Stores write an aligned 8-byte chunk — compressible
// pool/narrow data with probability StoreComp, random bytes otherwise.
func (m *Memory) ApplyStore(line []byte, addr uint64) {
	if len(line) != cache.LineSize {
		panic(fmt.Sprintf("trace: ApplyStore on %d bytes", len(line)))
	}
	off := int(m.storeR.Intn(cache.LineSize/8)) * 8
	if m.storeR.Chance(m.draws.storeComp) {
		if m.storeR.Chance(pStorePool) {
			region := cache.LineAddr(addr) / RegionBytes
			p := m.pool(m.regionPools(region), 2, region)
			copy(line[off:off+8], p[m.storeR.Intn(len(p))])
		} else {
			binary.LittleEndian.PutUint32(line[off:], uint32(m.storeR.Trials(gStoreNarrow)))
			binary.LittleEndian.PutUint32(line[off+4:], 0)
		}
	} else {
		binary.LittleEndian.PutUint64(line[off:], m.storeR.Uint64())
	}
}

// WrittenLines returns how many distinct lines hold written-back data.
func (m *Memory) WrittenLines() int { return len(m.written) }

// mix is a 64-bit finalizer (splitmix64's) used to derive per-line seeds.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
