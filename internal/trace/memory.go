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
	prof  Profile
	draws valueDraws
	// written holds each written-back line's latest contents. A write
	// overwrites its address's record and a read copies it out, so no
	// caller's slice aliases it.
	written lineStore
	// pools hold the duplication chunks of each address region, one
	// pool per granularity level, each instantiated lazily: neighboring
	// lines share a small vocabulary (which windowed inter-line
	// compression can exploit), while the global vocabulary across
	// regions is large (which bounds what a global frequency dictionary
	// like SC2's can capture).
	pools  map[uint64]*regionPools
	fpPool [16]uint32 // exponent-word pool for FP-like data (global)
	storeR rng.RNG

	ReadLines  uint64 // lines synthesized or fetched
	WriteLines uint64 // lines written back
}

// regionPools are one region's chunk pools, indexed by level; a nil
// pool is not built yet. A level's pool is one array of its entries
// back to back, poolGran[level] bytes each.
type regionPools [4][]byte

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
func (m *Memory) pool(rp *regionPools, level int, region uint64) []byte {
	if p := rp[level]; p != nil {
		return p
	}
	var r rng.RNG
	r.Seed(m.prof.Seed ^ mix(0x504f4f4c^uint64(level)<<40^region*2654435761))
	g := poolGran[level]
	p := make([]byte, m.prof.PoolSizes[level]*g)
	var child []byte
	if level < 3 {
		child = m.pool(rp, level+1, region)
	}
	for off := 0; off < len(p); off += g {
		e := p[off : off+g]
		if level < 3 && r.Chance(pPoolPair) {
			copy(e, pick(&r, child, g/2))
			copy(e[g/2:], pick(&r, child, g/2))
		} else {
			m.genChunk(&r, e)
		}
	}
	rp[level] = p
	return p
}

// pick returns a uniformly drawn entry of pool p, whose entries are g
// bytes each.
func pick(r *rng.RNG, p []byte, g int) []byte {
	i := r.Intn(len(p)/g) * g
	return p[i : i+g]
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
		pools: make(map[uint64]*regionPools),
	}
	for i, w := range p.GranWeights {
		m.draws.gran[i] = rng.ThresholdOf(w)
	}
	m.storeR.Seed(p.Seed ^ 0x53544f5245) // "STORE"
	var poolR rng.RNG
	poolR.Seed(p.Seed ^ 0x504f4f4c) // "POOL"
	for i := range m.fpPool {
		// Double-precision high words: same sign/exponent neighborhood.
		m.fpPool[i] = 0x3FE00000 | uint32(poolR.Intn(1<<12))
	}
	return m
}

// genChunk fills a pool chunk following the word model.
func (m *Memory) genChunk(r *rng.RNG, b []byte) {
	for off := 0; off < len(b); off += 4 {
		m.genWord(r, b[off:off+4], off/4)
	}
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
		binary.LittleEndian.PutUint32(dst, m.fpPool[r.Intn(len(m.fpPool))])
	default:
		binary.LittleEndian.PutUint32(dst, r.Uint32())
	}
}

// ReadLine returns a new copy of the 64-byte line at addr
// (line-aligned internally).
func (m *Memory) ReadLine(addr uint64) []byte {
	line := make([]byte, cache.LineSize)
	m.ReadLineInto(line, addr)
	return line
}

// ReadLineInto writes the 64-byte line at addr (line-aligned
// internally) into dst, which must be 64 bytes long: ReadWritten, then
// Pristine if the line was never written back.
func (m *Memory) ReadLineInto(dst []byte, addr uint64) {
	if !m.ReadWritten(dst, addr) {
		m.synthLine(dst, cache.LineAddr(addr))
	}
}

// ReadWritten counts one line read from memory (ReadLines) and, if the
// line at addr was ever written back, copies its latest contents into
// dst and reports true. Otherwise memory holds the pristine line, which
// Pristine synthesizes, and dst is untouched. dst must be 64 bytes long.
//
// ReadWritten and WriteLine use only the backing store, and Pristine and
// StoreChunk only the value model: one goroutine may run each pair.
func (m *Memory) ReadWritten(dst []byte, addr uint64) bool {
	if len(dst) != cache.LineSize {
		panic(fmt.Sprintf("trace: read of a line into %d bytes", len(dst)))
	}
	m.ReadLines++
	if r := m.written.find(cache.LineAddr(addr)); r != nil {
		copy(dst, r.data[:])
		return true
	}
	return false
}

// Pristine writes the line at addr as it was before any write-back, a
// function of the profile's seed and the address alone, into dst, which
// must be 64 bytes long. It counts no read.
func (m *Memory) Pristine(dst []byte, addr uint64) {
	if len(dst) != cache.LineSize {
		panic(fmt.Sprintf("trace: Pristine into %d bytes", len(dst)))
	}
	m.synthLine(dst, cache.LineAddr(addr))
}

// WriteLine records a line written back from the cache hierarchy.
func (m *Memory) WriteLine(addr uint64, data []byte) {
	if len(data) != cache.LineSize {
		panic(fmt.Sprintf("trace: WriteLine of %d bytes", len(data)))
	}
	m.WriteLines++
	m.written.put(cache.LineAddr(addr), data)
}

// synthLine deterministically generates the pristine contents of the
// line at la into line.
func (m *Memory) synthLine(line []byte, la uint64) {
	var r rng.RNG
	r.Seed(m.prof.Seed ^ mix(la))
	if r.Chance(m.draws.zeroLine) {
		clear(line)
		return
	}
	m.fillRegion(&r, line, 0, la/RegionBytes)
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
				copy(line[off:off+g], pick(r, m.pool(rp, lvl, region), g))
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
// reflect one store: it writes StoreChunk's 8 bytes at its offset.
func (m *Memory) ApplyStore(line []byte, addr uint64) {
	if len(line) != cache.LineSize {
		panic(fmt.Sprintf("trace: ApplyStore on %d bytes", len(line)))
	}
	off, v := m.StoreChunk(addr)
	binary.LittleEndian.PutUint64(line[off:], v)
}

// StoreChunk draws the next store to addr's line: the offset of the
// aligned 8-byte chunk it writes and the chunk, little-endian. The chunk
// is compressible pool or narrow data with probability StoreComp and
// random bytes otherwise; it does not depend on the line's contents.
func (m *Memory) StoreChunk(addr uint64) (off int, v uint64) {
	off = int(m.storeR.Intn(cache.LineSize/8)) * 8
	if !m.storeR.Chance(m.draws.storeComp) {
		return off, m.storeR.Uint64()
	}
	if m.storeR.Chance(pStorePool) {
		region := cache.LineAddr(addr) / RegionBytes
		return off, binary.LittleEndian.Uint64(pick(&m.storeR, m.pool(m.regionPools(region), 2, region), 8))
	}
	// A narrow value in the low word and zero in the high word.
	return off, uint64(uint32(m.storeR.Trials(gStoreNarrow)))
}

// WrittenLines returns how many distinct lines hold written-back data.
func (m *Memory) WrittenLines() int { return m.written.n }

// mix is a 64-bit finalizer (splitmix64's) used to derive per-line seeds.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
