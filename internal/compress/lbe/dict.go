package lbe

import (
	"encoding/binary"
	"math/bits"
)

// Granularity levels: a region at level lvl is 4<<lvl bytes.
const (
	lvl32 = iota
	lvl64
	lvl128
	lvl256
)

// chunk is one 32-byte LBE chunk loaded as four little-endian 64-bit
// words. Region i of level lvl covers bytes [i<<(lvl+2), (i+1)<<(lvl+2)):
// 32-bit word i is half of c[i/2], a 64-bit region is c[i], a 128-bit
// region is c[2i:2i+2], and the 256-bit region is the whole chunk.
type chunk [4]uint64

func loadChunk(b []byte) chunk {
	return chunk{
		binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:]),
		binary.LittleEndian.Uint64(b[16:]), binary.LittleEndian.Uint64(b[24:]),
	}
}

func (c *chunk) store(b []byte) {
	for i, q := range c {
		binary.LittleEndian.PutUint64(b[8*i:], q)
	}
}

// word returns 32-bit word i (little-endian, like the bytes it covers).
func (c *chunk) word(i int) uint32 { return uint32(c[i/2] >> (32 * (i % 2))) }

func (c *chunk) setWord(i int, w uint32) {
	shift := 32 * (i % 2)
	c[i/2] = c[i/2]&^(0xffffffff<<shift) | uint64(w)<<shift
}

func (c *chunk) isZero(lvl, i int) bool {
	switch lvl {
	case lvl32:
		return c.word(i) == 0
	case lvl64:
		return c[i] == 0
	case lvl128:
		return c[2*i]|c[2*i+1] == 0
	}
	return c[0]|c[1]|c[2]|c[3] == 0
}

// regionWords returns the mask of the 32-bit words region i of level
// lvl covers.
func regionWords(lvl, i int) uint8 {
	return uint8((1<<(1<<lvl) - 1) << (i << lvl))
}

// dict is one granularity's dictionary: insertion-ordered entries with a
// content index. Entries never change once inserted (append-only, frozen
// when full), matching the stream-preservation requirement of §2.2, so
// truncating to an earlier length undoes exactly the later insertions.
//
// The index is a linear-probing table of at least twice the capacity,
// so a probe always ends at an empty slot. Each slot holds its key and
// 1-based entry index (0 marks an empty slot), and each entry records
// the slot it landed in. Every key took the first empty slot on its
// probe path, so clearing the slots of the newest entries returns the
// table to exactly the state it had before they were inserted: lookups
// need no tombstones. Everything is sized at construction, so inserting
// never allocates.
type dict[K comparable] struct {
	cap     int
	entries []K
	slots   []int32 // slots[j]: the table slot entry j landed in
	table   []slot[K]
	shift   uint // a key's home slot is the top bits of its hash
}

type slot[K comparable] struct {
	key K
	idx int32 // 1-based entry index; 0 when empty
}

func newDict[K comparable](capacity int) dict[K] {
	size := 2
	for size < 2*capacity {
		size *= 2
	}
	return dict[K]{
		cap:     capacity,
		entries: make([]K, 0, capacity),
		slots:   make([]int32, 0, capacity),
		table:   make([]slot[K], size),
		shift:   uint(64 - bits.TrailingZeros(uint(size))),
	}
}

// find returns k's entry index if present, else the empty slot where k
// would be inserted. h is k's hash.
func (d *dict[K]) find(k K, h uint64) (idx, at int, ok bool) {
	mask := len(d.table) - 1
	for s := int(h >> d.shift); ; s = (s + 1) & mask {
		e := &d.table[s]
		if e.idx == 0 {
			return 0, s, false
		}
		if e.key == k {
			return int(e.idx) - 1, s, true
		}
	}
}

// insertAt appends k as a new entry at at, the empty slot find just
// returned for it, reporting false if the dictionary is full.
func (d *dict[K]) insertAt(k K, at int) bool {
	if len(d.entries) >= d.cap {
		return false
	}
	d.entries = append(d.entries, k)
	d.slots = append(d.slots, int32(at))
	d.table[at] = slot[K]{key: k, idx: int32(len(d.entries))}
	return true
}

// add inserts k if there is room and it is not already present.
func (d *dict[K]) add(k K, h uint64) {
	if len(d.entries) >= d.cap {
		return
	}
	if _, at, ok := d.find(k, h); !ok {
		d.insertAt(k, at)
	}
}

// truncate drops the entries from n on, clearing their slots newest
// first.
func (d *dict[K]) truncate(n int) {
	for j := len(d.entries) - 1; j >= n; j-- {
		d.table[d.slots[j]].idx = 0
	}
	d.entries = d.entries[:n]
	d.slots = d.slots[:n]
}

// Hashes of the four key types: Fibonacci hashing, whose top bits pick
// the home slot.
const fib = 0x9e3779b97f4a7c15

func hash32(w uint32) uint64     { return uint64(w) * fib }
func hash64(q uint64) uint64     { return q * fib }
func hash128(a, b uint64) uint64 { return (a*fib ^ b) * fib }
func hash256(c *chunk) uint64    { return (((c[0]*fib^c[1])*fib^c[2])*fib ^ c[3]) * fib }

// dicts holds the four granularities' dictionaries, keyed on the region
// values themselves. The Encoder and the Decoder share it, so both sides
// make the same insertions in the same order.
type dicts struct {
	d32  dict[uint32]
	d64  dict[uint64]
	d128 dict[[2]uint64]
	d256 dict[chunk]
}

func newDicts(cfg Config) dicts {
	return dicts{
		d32:  newDict[uint32](cfg.Dict32),
		d64:  newDict[uint64](cfg.Dict64),
		d128: newDict[[2]uint64](cfg.Dict128),
		d256: newDict[chunk](cfg.Dict256),
	}
}

// lookup returns the index of region i of level lvl of c.
func (d *dicts) lookup(c *chunk, lvl, i int) (int, bool) {
	var idx int
	var ok bool
	switch lvl {
	case lvl32:
		w := c.word(i)
		idx, _, ok = d.d32.find(w, hash32(w))
	case lvl64:
		idx, _, ok = d.d64.find(c[i], hash64(c[i]))
	case lvl128:
		idx, _, ok = d.d128.find([2]uint64{c[2*i], c[2*i+1]}, hash128(c[2*i], c[2*i+1]))
	default:
		idx, _, ok = d.d256.find(*c, hash256(c))
	}
	return idx, ok
}

// load writes entry idx of level lvl into region i of c, reporting
// false if the dictionary has no such entry.
func (d *dicts) load(c *chunk, lvl, i, idx int) bool {
	if idx >= d.lens()[lvl] {
		return false
	}
	switch lvl {
	case lvl32:
		c.setWord(i, d.d32.entries[idx])
	case lvl64:
		c[i] = d.d64.entries[idx]
	case lvl128:
		e := d.d128.entries[idx]
		c[2*i], c[2*i+1] = e[0], e[1]
	default:
		*c = d.d256.entries[idx]
	}
	return true
}

func (d *dicts) lens() [4]int {
	return [4]int{len(d.d32.entries), len(d.d64.entries), len(d.d128.entries), len(d.d256.entries)}
}

func (d *dicts) truncate(n [4]int) {
	d.d32.truncate(n[lvl32])
	d.d64.truncate(n[lvl64])
	d.d128.truncate(n[lvl128])
	d.d256.truncate(n[lvl256])
}

func (d *dicts) reset() { d.truncate([4]int{}) }

// chunkState is what the post-chunk allocation needs to know about the
// chunk just coded, gathered from its symbols as they are coded.
type chunkState struct {
	// failed[lvl] bit i: region i of level lvl (64/128/256-bit) did not
	// compress as a single symbol.
	failed [4]uint8
	// known bit w: word w is zero or in the 32-bit dictionary — it lies
	// in a zero or matched region of any level (a tree entry's words are
	// all known when it is allocated), or it is a literal that was
	// inserted.
	known uint8
}

// allocFailed performs LBE's post-chunk allocation: an entry for every
// failed region whose 32-bit words are all known (the condition for a
// binary-tree entry to have valid leaf pointers). Children go first so
// parents can be expressed as trees over existing entries; within a
// level, regions go in address order.
func (d *dicts) allocFailed(c *chunk, cs *chunkState) {
	for lvl := lvl64; lvl <= lvl256; lvl++ {
		for f := cs.failed[lvl]; f != 0; f &= f - 1 {
			i := bits.TrailingZeros8(f)
			if words := regionWords(lvl, i); cs.known&words != words {
				continue
			}
			switch lvl {
			case lvl64:
				d.d64.add(c[i], hash64(c[i]))
			case lvl128:
				d.d128.add([2]uint64{c[2*i], c[2*i+1]}, hash128(c[2*i], c[2*i+1]))
			default:
				d.d256.add(*c, hash256(c))
			}
		}
	}
}
