package lbe

import (
	"encoding/binary"
	"fmt"

	"morc/internal/compress/bitstream"
)

// refEncoder is the original string-keyed LBE encoder, kept verbatim in
// behaviour as the differential oracle for Encoder: every trial builds
// its own overlay of pending dictionary entries and a list of pending
// bits, and Commit replays both. It is slow and allocation-heavy by
// construction, and exists only so tests can check that Encoder's
// bits-only trials and commit-time encoding produce the same sizes,
// streams and symbol counts.
type refEncoder struct {
	cfg   Config
	w     *bitstream.Writer
	dicts [4]*refDict
	stats SymbolStats
	inLen int
}

// refDict is one granularity's dictionary: insertion-ordered entries
// with a content index keyed on the entry bytes.
type refDict struct {
	cap     int
	entries []string
	index   map[string]int
}

func newRefDict(capacity int) *refDict {
	return &refDict{cap: capacity, index: make(map[string]int, capacity)}
}

func (d *refDict) lookup(b []byte) (int, bool) {
	i, ok := d.index[string(b)]
	return i, ok
}

func (d *refDict) full() bool { return len(d.entries) >= d.cap }

func (d *refDict) add(s string) {
	if d.full() {
		return
	}
	if _, ok := d.index[s]; ok {
		return
	}
	d.index[s] = len(d.entries)
	d.entries = append(d.entries, s)
}

func newRefEncoder(cfg Config) *refEncoder {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &refEncoder{cfg: cfg, w: bitstream.NewWriter()}
	e.dicts[lvl32] = newRefDict(cfg.Dict32)
	e.dicts[lvl64] = newRefDict(cfg.Dict64)
	e.dicts[lvl128] = newRefDict(cfg.Dict128)
	e.dicts[lvl256] = newRefDict(cfg.Dict256)
	return e
}

func (e *refEncoder) Bits() int              { return e.w.Len() }
func (e *refEncoder) Bytes() []byte          { return e.w.Bytes() }
func (e *refEncoder) InputBytes() int        { return e.inLen }
func (e *refEncoder) Stats() SymbolStats     { return e.stats }
func (e *refEncoder) ptrBitsFor(lvl int) int { return e.cfg.ptrWidths()[lvl] }

// refPending is a trial append: the bits the block would occupy and the
// dictionary entries it would add.
type refPending struct {
	enc      *refEncoder
	startBit int
	bits     []refPendBit
	adds     [4][]string
	stats    SymbolStats
	inLen    int
	applied  bool
}

type refPendBit struct {
	v uint64
	n int
}

func (p *refPending) Bits() int {
	total := 0
	for _, b := range p.bits {
		total += b.n
	}
	return total
}

// refPendState overlays the entries a trial adds on the committed
// dictionaries.
type refPendState struct {
	p      *refPending
	addIdx [4]map[string]int
}

func (ps *refPendState) lookup(lvl int, b []byte) (int, bool) {
	if i, ok := ps.p.enc.dicts[lvl].lookup(b); ok {
		return i, true
	}
	if i, ok := ps.addIdx[lvl][string(b)]; ok {
		return i, true
	}
	return 0, false
}

func (ps *refPendState) full(lvl int) bool {
	d := ps.p.enc.dicts[lvl]
	return len(d.entries)+len(ps.p.adds[lvl]) >= d.cap
}

func (ps *refPendState) add(lvl int, b []byte) {
	if ps.full(lvl) {
		return
	}
	if _, ok := ps.lookup(lvl, b); ok {
		return
	}
	d := ps.p.enc.dicts[lvl]
	idx := len(d.entries) + len(ps.p.adds[lvl])
	s := string(b)
	ps.p.adds[lvl] = append(ps.p.adds[lvl], s)
	ps.addIdx[lvl][s] = idx
}

func (ps *refPendState) emit(v uint64, n int) {
	ps.p.bits = append(ps.p.bits, refPendBit{v, n})
}

func (ps *refPendState) emitSym(s Symbol) {
	c := symCode[s]
	ps.emit(uint64(c.v), c.n)
	ps.p.stats[s]++
}

func (e *refEncoder) Append(block []byte) *refPending {
	if len(block) == 0 || len(block)%32 != 0 {
		panic(fmt.Sprintf("lbe: Append block of %d bytes (need positive multiple of 32)", len(block)))
	}
	p := &refPending{enc: e, startBit: e.w.Len(), inLen: len(block)}
	ps := &refPendState{p: p}
	for i := range ps.addIdx {
		ps.addIdx[i] = make(map[string]int)
	}
	for off := 0; off < len(block); off += 32 {
		e.encodeChunk(ps, block[off:off+32])
	}
	return p
}

func (e *refEncoder) Commit(p *refPending) {
	if p.enc != e || p.applied || p.startBit != e.w.Len() {
		panic("lbe: reference Commit of a foreign, applied or stale pending")
	}
	for _, b := range p.bits {
		e.w.WriteBits(b.v, b.n)
	}
	for lvl, adds := range p.adds {
		for _, s := range adds {
			e.dicts[lvl].add(s)
		}
	}
	e.stats.Add(p.stats)
	e.inLen += p.inLen
	p.applied = true
}

func (e *refEncoder) AppendCommit(block []byte) int {
	p := e.Append(block)
	e.Commit(p)
	return p.Bits()
}

func refIsZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

func refGranBytes(lvl int) int { return 4 << uint(lvl) }

func (e *refEncoder) encodeChunk(ps *refPendState, chunk []byte) {
	var failed [][2]int // (level, offset) of regions that failed to compress
	e.encodeRegion(ps, chunk, lvl256, 0, &failed)
	for lvl := lvl64; lvl <= lvl256; lvl++ {
		for _, f := range failed {
			if f[0] != lvl {
				continue
			}
			region := chunk[f[1] : f[1]+refGranBytes(lvl)]
			if e.representable(ps, region) {
				ps.add(lvl, region)
			}
		}
	}
}

func (e *refEncoder) representable(ps *refPendState, region []byte) bool {
	for off := 0; off < len(region); off += 4 {
		w := region[off : off+4]
		if refIsZero(w) {
			continue
		}
		if _, ok := ps.lookup(lvl32, w); !ok {
			return false
		}
	}
	return true
}

func (e *refEncoder) encodeRegion(ps *refPendState, chunk []byte, lvl, off int, failed *[][2]int) {
	g := refGranBytes(lvl)
	region := chunk[off : off+g]
	if refIsZero(region) {
		ps.emitSym(zSym[lvl])
		return
	}
	if idx, ok := ps.lookup(lvl, region); ok {
		ps.emitSym(mSym[lvl])
		ps.emit(uint64(idx), e.ptrBitsFor(lvl))
		return
	}
	if lvl > lvl32 {
		*failed = append(*failed, [2]int{lvl, off})
		e.encodeRegion(ps, chunk, lvl-1, off, failed)
		e.encodeRegion(ps, chunk, lvl-1, off+g/2, failed)
		return
	}
	w := binary.LittleEndian.Uint32(region)
	switch {
	case w < 1<<8:
		ps.emitSym(SymU8)
		ps.emit(uint64(w), 8)
	case w < 1<<16:
		ps.emitSym(SymU16)
		ps.emit(uint64(w), 16)
	default:
		ps.emitSym(SymU32)
		ps.emit(uint64(w), 32)
	}
	ps.add(lvl32, region)
}
