package lbe

import (
	"fmt"
	"math/bits"
)

// MaxGroupSlots is the most logs one Group sizes at once: a slot is one
// bit of a uint64 mask.
const MaxGroupSlots = 64

// Group holds the LBE dictionaries of several logs, its slots, and
// sizes a block against all of them in one walk of the block: MORC
// compresses an inserted line into every active log and keeps the
// smallest (§3.2.3), and its hardware runs those compressors side by
// side. The slot that wins keeps its trial (Keep), so no block is
// encoded twice and no slot writes a stream.
//
// A block's trial size in one slot depends, region by region, on
// whether the slot's dictionary holds the region's value and whether
// the dictionary is full; pointer widths are the same for every slot.
// So a slot's dictionaries are only their entries in insertion order,
// and one membership index per granularity maps a value to the mask of
// the slots whose dictionary holds it. A trial walks the block with a
// mask of slots: a zero region charges every slot in the mask, and one
// probe splits the mask into the slots that match and the slots that
// recurse into the region's halves. The walk follows encodeRegion and
// allocFailed rule for rule, in the same order, so a slot's bits,
// symbols and entries are those of an Encoder fed the blocks the slot
// kept (CheckSlot compares the entries).
type Group struct {
	ptr   [4]int // match-pointer width per level
	caps  [4]int // dictionary capacity per level
	slots []slotDicts

	// The membership index: value -> mask of the slots holding it.
	x32  index[uint32]
	x64  index[uint64]
	x128 index[[2]uint64]
	x256 index[chunk]

	// State of the last trial, which Keep reads.
	live   uint64   // the slots it sized, until one keeps it or a Reset
	bits   []int    // per slot
	lens   [][4]int // per slot and level: dictionary length, trial entries included
	full   [4]uint64
	c      chunk        // the block's last chunk once the trial ends
	known  [8]uint64    // per word: slots for which it is zero or in the 32-bit dictionary
	failed [4][4]uint64 // per level and region: slots for which it missed
	undo   []undoRec    // the trial's index changes, in order
	syms   []symRec     // the symbols the trial charged, in order
}

// slotDicts is one slot's dictionaries: each granularity's entries in
// insertion order. The group's index answers every lookup, so a slot
// has no table of its own.
type slotDicts struct {
	d32  []uint32
	d64  []uint64
	d128 [][2]uint64
	d256 []chunk
}

func (d *slotDicts) lens() [4]int {
	return [4]int{len(d.d32), len(d.d64), len(d.d128), len(d.d256)}
}

// undoRec is one index change a trial made: at level lvl, the slots in
// took added the value in index slot at, whose mask was prev before.
type undoRec struct {
	lvl  int32
	at   int32
	prev uint64
	took uint64
}

// symRec is one charge a trial made: the slots in m coded symbol sym.
type symRec struct {
	m   uint64
	sym Symbol
}

// Per chunk, a trial changes the index at most once per 32-bit word (a
// literal) and 64/128/256-bit region (a tree entry), and charges at
// most once per region of every level plus once more per 32-bit word
// (a match for some slots, a literal for the others).
const (
	undoPerChunk = 8 + 4 + 2 + 1
	symsPerChunk = 2*8 + 4 + 2 + 1
)

// NewGroup returns a group of n slots with empty dictionaries of the
// given configuration.
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
		slots: make([]slotDicts, n),
		x32:   newIndex[uint32](n * cfg.Dict32),
		x64:   newIndex[uint64](n * cfg.Dict64),
		x128:  newIndex[[2]uint64](n * cfg.Dict128),
		x256:  newIndex[chunk](n * cfg.Dict256),
		bits:  make([]int, n),
		lens:  make([][4]int, n),
		undo:  make([]undoRec, 0, 2*undoPerChunk),
		syms:  make([]symRec, 0, 2*symsPerChunk),
	}
	for i := range g.slots {
		g.slots[i] = slotDicts{
			d32:  make([]uint32, 0, cfg.Dict32),
			d64:  make([]uint64, 0, cfg.Dict64),
			d128: make([][2]uint64, 0, cfg.Dict128),
			d256: make([]chunk, 0, cfg.Dict256),
		}
	}
	return g
}

// TrialBits returns the number of bits appending block (length a
// positive multiple of 32) would add to each slot, indexed by slot, in
// a slice the next trial overwrites. No slot's dictionaries change, and
// any one slot may then keep the trial (Keep). Nothing is allocated
// once the group has sized a block as long.
func (g *Group) TrialBits(block []byte) []int {
	g.trial(block, ^uint64(0)>>(MaxGroupSlots-len(g.slots)))
	return g.bits
}

// TrialSlot returns the number of bits appending block would add to
// slot alone, which may then keep the trial (Keep): MORC sizes a line
// this way in the log it opens when no active log has room.
func (g *Group) TrialSlot(slot int, block []byte) int {
	g.trial(block, 1<<slot)
	return g.bits[slot]
}

// trial sizes block for the slots in m and leaves what Keep needs: the
// entries it added and the symbols it charged, in order, and the state
// of the last chunk, whose post-chunk allocation it skips.
func (g *Group) trial(block []byte, m uint64) {
	if len(block) == 0 || len(block)%32 != 0 {
		panic(fmt.Sprintf("lbe: Append block of %d bytes (need positive multiple of 32)", len(block)))
	}
	g.full = [4]uint64{}
	for ms := m; ms != 0; ms &= ms - 1 {
		s := bits.TrailingZeros64(ms)
		g.bits[s] = 0
		g.lens[s] = g.slots[s].lens()
		for lvl, n := range g.lens[s] {
			if n >= g.caps[lvl] {
				g.full[lvl] |= 1 << s
			}
		}
	}
	chunks := len(block) / 32
	if need := undoPerChunk * chunks; cap(g.undo) < need {
		g.undo = make([]undoRec, 0, need)
	}
	if need := symsPerChunk * chunks; cap(g.syms) < need {
		g.syms = make([]symRec, 0, need)
	}
	g.undo, g.syms = g.undo[:0], g.syms[:0]
	for off := 0; off < len(block); off += 32 {
		g.c = loadChunk(block[off:])
		g.known, g.failed = [8]uint64{}, [4][4]uint64{}
		g.region(lvl256, 0, m)
		// The last chunk's post-chunk allocation matters only to the
		// slot that keeps the trial, so Keep runs it for that slot.
		if off+32 < len(block) {
			g.allocFailed()
		}
	}
	g.rollBack()
	g.live = m
}

// region sizes region i of level lvl of the current chunk for the slots
// in m, as encodeRegion codes it in each of them.
func (g *Group) region(lvl, i int, m uint64) {
	if g.c.isZero(lvl, i) {
		g.charge(m, zSym[lvl], 0)
		g.know(regionWords(lvl, i), m)
		return
	}
	held, at := g.probe(lvl, i)
	hit := held & m
	if hit != 0 {
		g.charge(hit, mSym[lvl], g.ptr[lvl])
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
		g.charge(miss, SymU8, 8)
	case w < 1<<16:
		g.charge(miss, SymU16, 16)
	default:
		g.charge(miss, SymU32, 32)
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

// charge codes symbol sym, with n bits after its prefix, in every slot
// in m, and logs it for Keep's symbol counts.
func (g *Group) charge(m uint64, sym Symbol, n int) {
	g.syms = append(g.syms, symRec{m: m, sym: sym})
	n += symCode[sym].n
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

// set stores mask in index slot at for region i of level lvl of the
// current chunk, the value probe found there or would put there.
func (g *Group) set(lvl, i, at int, mask uint64) {
	c := &g.c
	switch lvl {
	case lvl32:
		w := c.word(i)
		g.x32.set(at, w, hash32(w), mask)
	case lvl64:
		g.x64.set(at, c[i], hash64(c[i]), mask)
	case lvl128:
		g.x128.set(at, [2]uint64{c[2*i], c[2*i+1]}, hash128(c[2*i], c[2*i+1]), mask)
	default:
		g.x256.set(at, *c, hash256(c), mask)
	}
}

// insert adds the slots in m to the dictionaries holding region i of
// level lvl: it sets the mask at at, where probe found held, logs the
// change for the rollback and Keep, and counts the new entries.
func (g *Group) insert(lvl, i, at int, held, m uint64) {
	g.set(lvl, i, at, held|m)
	g.undo = append(g.undo, undoRec{lvl: int32(lvl), at: int32(at), prev: held, took: m})
	for ; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		if g.lens[s][lvl]++; g.lens[s][lvl] == g.caps[lvl] {
			g.full[lvl] |= 1 << s
		}
	}
}

// rollBack restores the index masks the trial changed, newest first,
// and keeps the log for Keep. A trial only adds to masks, and a value
// new to the index took the first empty slot on its probe path, so
// emptying those slots in reverse returns each table to exactly its
// state before the trial (the argument dict.truncate rests on). Only
// masks change: an emptied slot keeps its value.
func (g *Group) rollBack() {
	for j := len(g.undo) - 1; j >= 0; j-- {
		u := &g.undo[j]
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
}

// Keep makes slot keep the last trial, which must have sized it, and
// returns the bits and the symbols the trial coded the block with in
// that slot. The slot's dictionaries take the entries the trial added
// for it, in the order it added them, then the entries of the last
// chunk's post-chunk allocation, which the trial skipped: exactly the
// entries an Encoder adds when it appends the block. Keep panics when
// no trial of the slot is left to keep: before any trial, after a
// Reset, and the second time.
func (g *Group) Keep(slot int) (n int, syms SymbolStats) {
	bit := uint64(1) << slot
	if g.live&bit == 0 {
		panic("lbe: group Keep without a trial of the slot to keep")
	}
	g.live = 0
	d := &g.slots[slot]
	from := d.lens()
	// The rollback restored only masks, and nothing has changed the
	// index since, so each entry's value is still in its index slot.
	for _, u := range g.undo {
		if u.took&bit == 0 {
			continue
		}
		switch u.lvl {
		case lvl32:
			d.d32 = append(d.d32, g.x32.table[u.at].key)
		case lvl64:
			d.d64 = append(d.d64, g.x64.table[u.at].key)
		case lvl128:
			d.d128 = append(d.d128, g.x128.table[u.at].key)
		default:
			d.d256 = append(d.d256, g.x256.table[u.at].key)
		}
	}
	for _, k := range d.d32[from[lvl32]:] {
		g.x32.add(k, hash32(k), bit)
	}
	for _, k := range d.d64[from[lvl64]:] {
		g.x64.add(k, hash64(k), bit)
	}
	for _, k := range d.d128[from[lvl128]:] {
		g.x128.add(k, hash128(k[0], k[1]), bit)
	}
	for _, k := range d.d256[from[lvl256]:] {
		g.x256.add(k, hash256(&k), bit)
	}
	g.allocLast(d, bit)
	for _, r := range g.syms {
		if r.m&bit != 0 {
			syms[r.sym]++
		}
	}
	return g.bits[slot], syms
}

// allocLast performs the post-chunk allocation of the trial's last
// chunk for the one slot bit names, whose dictionaries d (indexed)
// hold the trial's other entries: allocFailed for that slot alone.
func (g *Group) allocLast(d *slotDicts, bit uint64) {
	c := &g.c
	for lvl := lvl64; lvl <= lvl256; lvl++ {
		for i := 0; i < 8>>lvl; i++ {
			m := g.failed[lvl][i] & bit
			if d.lens()[lvl] >= g.caps[lvl] {
				m = 0
			}
			for w := regionWords(lvl, i); w != 0 && m != 0; w &= w - 1 {
				m &= g.known[bits.TrailingZeros8(w)]
			}
			if m == 0 {
				continue
			}
			held, at := g.probe(lvl, i)
			if held&m != 0 {
				continue
			}
			g.set(lvl, i, at, held|m)
			switch lvl {
			case lvl64:
				d.d64 = append(d.d64, c[i])
			case lvl128:
				d.d128 = append(d.d128, [2]uint64{c[2*i], c[2*i+1]})
			default:
				d.d256 = append(d.d256, *c)
			}
		}
	}
}

// Reset empties slot's dictionaries, taking their entries out of the
// index, for the log that takes the slot over. A trial from before the
// reset can no longer be kept.
func (g *Group) Reset(slot int) {
	bit := uint64(1) << slot
	d := &g.slots[slot]
	for _, k := range d.d32 {
		g.x32.remove(k, hash32(k), bit)
	}
	for _, k := range d.d64 {
		g.x64.remove(k, hash64(k), bit)
	}
	for _, k := range d.d128 {
		g.x128.remove(k, hash128(k[0], k[1]), bit)
	}
	for _, k := range d.d256 {
		g.x256.remove(k, hash256(&k), bit)
	}
	d.d32, d.d64, d.d128, d.d256 = d.d32[:0], d.d64[:0], d.d128[:0], d.d256[:0]
	g.live = 0
}

// Check verifies the index against the slots' dictionaries: no
// dictionary holds more entries than its capacity or a value twice,
// every indexed (value, slot) pair is in that slot's dictionary, every
// entry is indexed, and every value sits on its probe path from its
// home (a value whose mask fell to 0 left no hole behind it). It is
// O(dictionaries) and meant for tests.
func (g *Group) Check() error {
	n := len(g.slots)
	d32, d64 := make([][]uint32, n), make([][]uint64, n)
	d128, d256 := make([][][2]uint64, n), make([][]chunk, n)
	for s := range g.slots {
		d := &g.slots[s]
		d32[s], d64[s], d128[s], d256[s] = d.d32, d.d64, d.d128, d.d256
	}
	for lvl, err := range []error{
		checkIndex(&g.x32, d32, g.caps[lvl32], hash32),
		checkIndex(&g.x64, d64, g.caps[lvl64], hash64),
		checkIndex(&g.x128, d128, g.caps[lvl128], func(k [2]uint64) uint64 { return hash128(k[0], k[1]) }),
		checkIndex(&g.x256, d256, g.caps[lvl256], func(k chunk) uint64 { return hash256(&k) }),
	} {
		if err != nil {
			return fmt.Errorf("group: level %d: %w", lvl, err)
		}
	}
	return nil
}

// checkIndex verifies one level's index against the slots' entries at
// that level.
func checkIndex[K comparable](x *index[K], entries [][]K, capacity int, hash func(K) uint64) error {
	found := make([]uint64, len(x.table)) // per index slot: the slots whose entries a probe found there
	for s, es := range entries {
		if len(es) > capacity {
			return fmt.Errorf("slot %d holds %d entries, more than its capacity %d", s, len(es), capacity)
		}
		for j, k := range es {
			mask, at := x.find(k, hash(k))
			if mask&(1<<s) == 0 {
				return fmt.Errorf("slot %d's entry %d is not indexed for the slot", s, j)
			}
			if found[at]&(1<<s) != 0 {
				return fmt.Errorf("slot %d holds entry %d's value twice", s, j)
			}
			found[at] |= 1 << s
		}
	}
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
		if e.mask != found[at] {
			return fmt.Errorf("index slot %d names slots %#x, the dictionaries holding its value are %#x", at, e.mask, found[at])
		}
	}
	return nil
}

// CheckSlot verifies slot's dictionaries against e's, entry for entry;
// e must have the group's configuration and have been fed exactly the
// blocks the slot kept since its last Reset. It is meant for tests.
func (g *Group) CheckSlot(slot int, e *Encoder) error {
	ed := &e.dicts
	if caps := [4]int{ed.d32.cap, ed.d64.cap, ed.d128.cap, ed.d256.cap}; caps != g.caps {
		return fmt.Errorf("group slot %d: the encoder's dictionary capacities %v, the group's %v", slot, caps, g.caps)
	}
	d := &g.slots[slot]
	for lvl, err := range []error{
		sameEntries(d.d32, ed.d32.entries),
		sameEntries(d.d64, ed.d64.entries),
		sameEntries(d.d128, ed.d128.entries),
		sameEntries(d.d256, ed.d256.entries),
	} {
		if err != nil {
			return fmt.Errorf("group slot %d: level %d: %w", slot, lvl, err)
		}
	}
	return nil
}

func sameEntries[K comparable](got, want []K) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, the encoder has %d", len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			return fmt.Errorf("entry %d is %v, the encoder's is %v", j, got[j], want[j])
		}
	}
	return nil
}

// index maps a value to the mask of the slots whose dictionary holds
// it. It is a linear-probing table of at least eight times the values
// it can hold (every slot's dictionary full of distinct values), so a
// probe always ends at an empty slot and almost always at its first; a
// mask of 0 marks an empty slot. Each slot records its value's home
// slot, so a value whose mask falls to 0 leaves by backward-shift
// deletion, without tombstones.
type index[K comparable] struct {
	table []indexSlot[K]
	shift uint // a value's home slot is the top bits of its hash
}

// indexSlot puts its mask first, so a 32-bit value's slot packs into
// 16 bytes.
type indexSlot[K comparable] struct {
	mask uint64
	key  K
	home int32
}

func newIndex[K comparable](capacity int) index[K] {
	size := 2
	for size < 8*capacity {
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
