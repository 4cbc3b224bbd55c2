package lbe

import (
	"fmt"
	"math/bits"
)

// MaxGroupSlots is the most encoders one Group sizes at once: a slot is
// one bit of a uint64 mask.
const MaxGroupSlots = 64

// Group sizes a block against several open encoders, its slots, in one
// walk of the block: MORC compresses an inserted line into every active
// log and keeps the smallest (§3.2.3), and its hardware runs those
// compressors side by side.
//
// A block's trial size in one encoder depends, region by region, on
// whether the encoder's dictionary holds the region's value and whether
// the dictionary is full; pointer widths are the same for every slot.
// So the group keeps one membership index per granularity, mapping a
// value to the mask of the slots whose dictionary holds it, and walks
// the block with a mask of slots: a zero region charges every slot in
// the mask, and one probe splits the mask into the slots that match and
// the slots that recurse into the region's halves. The walk follows
// encodeRegion and allocFailed rule for rule, in the same order, so each
// slot's size is its encoder's TrialBits.
//
// Only the winner encodes for real (AppendCommit), which indexes the
// entries it keeps. A slot's dictionaries leave the index (Release)
// before anything empties them, and pass to the encoder that takes the
// slot over (HandOff). Resetting a slot's encoder directly, or handing
// off its dictionaries outside the group, leaves the index stale.
type Group struct {
	ptr      [4]int // match-pointer width per level
	caps     [4]int // dictionary capacity per level
	slots    []*Encoder
	released uint64 // slots Released and not yet handed off

	// The membership index: value -> mask of the slots holding it.
	x32  index[uint32]
	x64  index[uint64]
	x128 index[[2]uint64]
	x256 index[chunk]

	// State of the trial in progress.
	bits   []int    // per slot
	lens   [][4]int // per slot and level: dictionary length, trial entries included
	full   [4]uint64
	c      chunk
	known  [8]uint64    // per word: slots for which it is zero or in the 32-bit dictionary
	failed [4][4]uint64 // per level and region: slots for which it missed
	undo   []undoRec    // the trial's index changes, undone in reverse
}

// undoRec is one index change a trial made: the mask the index slot at
// held at level lvl before it.
type undoRec struct {
	lvl  int32
	at   int32
	prev uint64
}

// undoPerChunk bounds the index changes one chunk of a trial makes: a
// literal per 32-bit word and a tree entry per 64/128/256-bit region.
const undoPerChunk = 8 + 4 + 2 + 1

// NewGroup returns a group of n slots, each holding a new, empty encoder
// with the given configuration.
func NewGroup(cfg Config, n int) *Group {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if n < 1 || n > MaxGroupSlots {
		panic(fmt.Sprintf("lbe: a group of %d slots (need 1 to %d)", n, MaxGroupSlots))
	}
	g := &Group{
		ptr:   cfg.ptrWidths(),
		caps:  [4]int{cfg.Dict32, cfg.Dict64, cfg.Dict128, cfg.Dict256},
		slots: make([]*Encoder, n),
		x32:   newIndex[uint32](n * cfg.Dict32),
		x64:   newIndex[uint64](n * cfg.Dict64),
		x128:  newIndex[[2]uint64](n * cfg.Dict128),
		x256:  newIndex[chunk](n * cfg.Dict256),
		bits:  make([]int, n),
		lens:  make([][4]int, n),
		undo:  make([]undoRec, 0, 2*undoPerChunk),
	}
	for i := range g.slots {
		g.slots[i] = NewEncoder(cfg)
	}
	return g
}

// Encoder returns the encoder in slot.
func (g *Group) Encoder(slot int) *Encoder { return g.slots[slot] }

// TrialBits returns the number of bits appending block (length a
// positive multiple of 32) would add to each slot's encoder, indexed by
// slot, in a slice the next call overwrites. No encoder changes, and
// nothing is allocated once the group has sized a block as long.
func (g *Group) TrialBits(block []byte) []int {
	if len(block) == 0 || len(block)%32 != 0 {
		panic(fmt.Sprintf("lbe: Append block of %d bytes (need positive multiple of 32)", len(block)))
	}
	if g.released != 0 {
		panic("lbe: group TrialBits with a released slot")
	}
	g.full = [4]uint64{}
	for s, e := range g.slots {
		if e.dicts == nil {
			panic("lbe: group TrialBits with a closed encoder")
		}
		g.bits[s] = 0
		g.lens[s] = e.dicts.lens()
		for lvl, n := range g.lens[s] {
			if n >= g.caps[lvl] {
				g.full[lvl] |= 1 << s
			}
		}
	}
	if need := undoPerChunk * len(block) / 32; cap(g.undo) < need {
		g.undo = make([]undoRec, 0, need)
	}
	all := ^uint64(0) >> (MaxGroupSlots - len(g.slots))
	for off := 0; off < len(block); off += 32 {
		g.c = loadChunk(block[off:])
		g.known, g.failed = [8]uint64{}, [4][4]uint64{}
		g.region(lvl256, 0, all)
		// As in encode, the last chunk skips the post-chunk allocation:
		// nothing would read its entries before the rollback.
		if off+32 < len(block) {
			g.allocFailed()
		}
	}
	g.rollBack()
	return g.bits
}

// region sizes region i of level lvl of the current chunk for the slots
// in m, as encodeRegion codes it in each of them.
func (g *Group) region(lvl, i int, m uint64) {
	if g.c.isZero(lvl, i) {
		g.charge(m, symCode[zSym[lvl]].n)
		g.know(regionWords(lvl, i), m)
		return
	}
	held, at := g.probe(lvl, i)
	hit := held & m
	if hit != 0 {
		g.charge(hit, symCode[mSym[lvl]].n+g.ptr[lvl])
		g.know(regionWords(lvl, i), hit)
	}
	miss := m &^ hit
	if miss == 0 {
		return
	}
	if lvl > lvl32 {
		g.failed[lvl][i] |= miss
		g.region(lvl-1, 2*i, miss)
		g.region(lvl-1, 2*i+1, miss)
		return
	}
	w := g.c.word(i)
	switch {
	case w < 1<<8:
		g.charge(miss, symCode[SymU8].n+8)
	case w < 1<<16:
		g.charge(miss, symCode[SymU16].n+16)
	default:
		g.charge(miss, symCode[SymU32].n+32)
	}
	if ins := miss &^ g.full[lvl32]; ins != 0 {
		g.insert(lvl32, i, at, held, ins)
		g.known[i] |= ins
	}
}

// allocFailed performs dicts.allocFailed for every slot at once: each
// failed region goes into the dictionaries of the slots that failed it,
// know all its words, have room and do not hold it yet.
func (g *Group) allocFailed() {
	for lvl := lvl64; lvl <= lvl256; lvl++ {
		for i := 0; i < 8>>lvl; i++ {
			m := g.failed[lvl][i] &^ g.full[lvl]
			for w := regionWords(lvl, i); w != 0 && m != 0; w &= w - 1 {
				m &= g.known[bits.TrailingZeros8(w)]
			}
			if m == 0 {
				continue
			}
			held, at := g.probe(lvl, i)
			if m &^= held; m != 0 {
				g.insert(lvl, i, at, held, m)
			}
		}
	}
}

// charge adds n bits to every slot in m.
func (g *Group) charge(m uint64, n int) {
	for ; m != 0; m &= m - 1 {
		g.bits[bits.TrailingZeros64(m)] += n
	}
}

// know marks the words for the slots in m.
func (g *Group) know(words uint8, m uint64) {
	for ; words != 0; words &= words - 1 {
		g.known[bits.TrailingZeros8(words)] |= m
	}
}

// probe returns the slots whose dictionary holds region i of level lvl
// of the current chunk, and the index slot where that value is or would
// go.
func (g *Group) probe(lvl, i int) (held uint64, at int) {
	c := &g.c
	switch lvl {
	case lvl32:
		w := c.word(i)
		return g.x32.find(w, hash32(w))
	case lvl64:
		return g.x64.find(c[i], hash64(c[i]))
	case lvl128:
		return g.x128.find([2]uint64{c[2*i], c[2*i+1]}, hash128(c[2*i], c[2*i+1]))
	}
	return g.x256.find(*c, hash256(c))
}

// insert adds the slots in m to the dictionaries holding region i of
// level lvl: it sets the mask at at, where probe found held, logs the
// change for the rollback and counts the new entries.
func (g *Group) insert(lvl, i, at int, held, m uint64) {
	c := &g.c
	switch lvl {
	case lvl32:
		w := c.word(i)
		g.x32.set(at, w, hash32(w), held|m)
	case lvl64:
		g.x64.set(at, c[i], hash64(c[i]), held|m)
	case lvl128:
		g.x128.set(at, [2]uint64{c[2*i], c[2*i+1]}, hash128(c[2*i], c[2*i+1]), held|m)
	default:
		g.x256.set(at, *c, hash256(c), held|m)
	}
	g.undo = append(g.undo, undoRec{lvl: int32(lvl), at: int32(at), prev: held})
	for ; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		if g.lens[s][lvl]++; g.lens[s][lvl] == g.caps[lvl] {
			g.full[lvl] |= 1 << s
		}
	}
}

// rollBack restores the index masks the trial changed, newest first. A
// trial only adds to masks, and a value new to the index took the first
// empty slot on its probe path, so emptying those slots in reverse
// returns each table to exactly its state before the trial (the argument
// dict.truncate rests on).
func (g *Group) rollBack() {
	for j := len(g.undo) - 1; j >= 0; j-- {
		u := g.undo[j]
		switch u.lvl {
		case lvl32:
			g.x32.table[u.at].mask = u.prev
		case lvl64:
			g.x64.table[u.at].mask = u.prev
		case lvl128:
			g.x128.table[u.at].mask = u.prev
		default:
			g.x256.table[u.at].mask = u.prev
		}
	}
	g.undo = g.undo[:0]
}

// AppendCommit encodes block into slot's encoder for real, indexes the
// dictionary entries the encode kept and returns the bits added.
func (g *Group) AppendCommit(slot int, block []byte) int {
	if g.released&(1<<slot) != 0 {
		panic("lbe: group AppendCommit to a released slot")
	}
	d := g.slots[slot].dicts
	if d == nil {
		panic("lbe: Append to a closed encoder")
	}
	from := d.lens()
	n := g.slots[slot].AppendCommit(block)
	bit := uint64(1) << slot
	for _, k := range d.d32.entries[from[lvl32]:] {
		g.x32.add(k, hash32(k), bit)
	}
	for _, k := range d.d64.entries[from[lvl64]:] {
		g.x64.add(k, hash64(k), bit)
	}
	for _, k := range d.d128.entries[from[lvl128]:] {
		g.x128.add(k, hash128(k[0], k[1]), bit)
	}
	for _, k := range d.d256.entries[from[lvl256]:] {
		g.x256.add(k, hash256(&k), bit)
	}
	return n
}

// Release takes slot's dictionary entries out of the index, walking the
// dictionaries, so it must come before anything empties them: in MORC
// the log that gives up a slot can be its own victim, and resetting it
// for reuse empties its dictionaries. The group refuses trials and
// commits until HandOff refills the slot.
func (g *Group) Release(slot int) {
	bit := uint64(1) << slot
	if g.released&bit != 0 {
		panic("lbe: Release of a released slot")
	}
	d := g.slots[slot].dicts
	if d == nil {
		panic("lbe: Release of a closed encoder")
	}
	for _, k := range d.d32.entries {
		g.x32.remove(k, hash32(k), bit)
	}
	for _, k := range d.d64.entries {
		g.x64.remove(k, hash64(k), bit)
	}
	for _, k := range d.d128.entries {
		g.x128.remove(k, hash128(k[0], k[1]), bit)
	}
	for _, k := range d.d256.entries {
		g.x256.remove(k, hash256(&k), bit)
	}
	g.released |= bit
}

// HandOff closes the released slot's encoder and gives its dictionaries,
// emptied, to to, which takes the slot over (Encoder.HandOff: to must be
// empty and closed, or the slot's encoder itself once its stream is
// reset).
func (g *Group) HandOff(slot int, to *Encoder) {
	bit := uint64(1) << slot
	if g.released&bit == 0 {
		panic("lbe: HandOff of a slot that was not released")
	}
	g.slots[slot].HandOff(to)
	g.slots[slot] = to
	g.released &^= bit
}

// Check verifies the index against the slots' dictionaries: every
// indexed (value, slot) pair is in that slot's dictionary, every entry
// of an unreleased slot is indexed, no released slot is, and every value
// sits on its probe path from its home (a value whose mask fell to 0
// left no hole behind it). It is O(dictionaries) and meant for tests.
func (g *Group) Check() error {
	if len(g.undo) != 0 {
		return fmt.Errorf("group: %d trial changes not rolled back", len(g.undo))
	}
	n := len(g.slots)
	d32, d64 := make([]*dict[uint32], n), make([]*dict[uint64], n)
	d128, d256 := make([]*dict[[2]uint64], n), make([]*dict[chunk], n)
	for s, e := range g.slots {
		if e.dicts == nil {
			return fmt.Errorf("group: slot %d holds a closed encoder", s)
		}
		if g.released&(1<<s) == 0 {
			d32[s], d64[s], d128[s], d256[s] = &e.dicts.d32, &e.dicts.d64, &e.dicts.d128, &e.dicts.d256
		}
	}
	for lvl, err := range []error{
		checkIndex(&g.x32, d32, hash32),
		checkIndex(&g.x64, d64, hash64),
		checkIndex(&g.x128, d128, func(k [2]uint64) uint64 { return hash128(k[0], k[1]) }),
		checkIndex(&g.x256, d256, func(k chunk) uint64 { return hash256(&k) }),
	} {
		if err != nil {
			return fmt.Errorf("group: level %d: %w", lvl, err)
		}
	}
	return nil
}

// checkIndex verifies one level's index against the slots' dictionaries
// at that level (nil for a released slot).
func checkIndex[K comparable](x *index[K], dicts []*dict[K], hash func(K) uint64) error {
	pairs := 0
	for at, e := range x.table {
		if e.mask == 0 {
			continue
		}
		h := hash(e.key)
		if int(e.home) != int(h>>x.shift) {
			return fmt.Errorf("index slot %d records home %d, its value hashes to %d", at, e.home, h>>x.shift)
		}
		if mask, got := x.find(e.key, h); got != at || mask != e.mask {
			return fmt.Errorf("index slot %d is off its value's probe path (a probe stops at %d)", at, got)
		}
		for m := e.mask; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			if s >= len(dicts) || dicts[s] == nil {
				return fmt.Errorf("index slot %d names slot %d, which holds no dictionary", at, s)
			}
			if _, _, ok := dicts[s].find(e.key, h); !ok {
				return fmt.Errorf("index slot %d names slot %d, whose dictionary lacks the value", at, s)
			}
			pairs++
		}
	}
	entries := 0
	for _, d := range dicts {
		if d != nil {
			entries += len(d.entries)
		}
	}
	if pairs != entries {
		return fmt.Errorf("%d indexed (value, slot) pairs for %d dictionary entries", pairs, entries)
	}
	return nil
}

// index maps a value to the mask of the slots whose dictionary holds
// it. It is a linear-probing table of at least twice the values it can
// hold (every slot's dictionary full of distinct values), so a probe
// always ends at an empty slot; a mask of 0 marks an empty slot. Each
// slot records its value's home slot, so a value whose mask falls to 0
// leaves by backward-shift deletion, without tombstones.
type index[K comparable] struct {
	table []indexSlot[K]
	shift uint // a value's home slot is the top bits of its hash
}

type indexSlot[K comparable] struct {
	key  K
	mask uint64
	home int32
}

func newIndex[K comparable](capacity int) index[K] {
	size := 2
	for size < 2*capacity {
		size *= 2
	}
	return index[K]{table: make([]indexSlot[K], size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// find returns k's mask (0 if absent) and the slot that holds k, or the
// empty slot where k would go. h is k's hash.
func (x *index[K]) find(k K, h uint64) (mask uint64, at int) {
	wrap := len(x.table) - 1
	for s := int(h >> x.shift); ; s = (s + 1) & wrap {
		e := &x.table[s]
		if e.mask == 0 || e.key == k {
			return e.mask, s
		}
	}
}

// set stores mask for k at at, the slot find returned for it.
func (x *index[K]) set(at int, k K, h, mask uint64) {
	e := &x.table[at]
	if e.mask == 0 {
		e.key, e.home = k, int32(h>>x.shift)
	}
	e.mask = mask
}

// add adds bit to k's mask.
func (x *index[K]) add(k K, h, bit uint64) {
	mask, at := x.find(k, h)
	x.set(at, k, h, mask|bit)
}

// remove clears bit from k's mask, deleting k when no slot holds it:
// each later value of k's cluster that may sit earlier on its probe path
// shifts back into the hole.
func (x *index[K]) remove(k K, h, bit uint64) {
	mask, at := x.find(k, h)
	if mask&bit == 0 {
		panic("lbe: group index lacks a dictionary entry")
	}
	if x.table[at].mask = mask &^ bit; x.table[at].mask != 0 {
		return
	}
	wrap := len(x.table) - 1
	hole := at
	for s := (at + 1) & wrap; x.table[s].mask != 0; s = (s + 1) & wrap {
		if (s-int(x.table[s].home))&wrap >= (s-hole)&wrap {
			x.table[hole] = x.table[s]
			hole = s
		}
	}
	x.table[hole].mask = 0
}
