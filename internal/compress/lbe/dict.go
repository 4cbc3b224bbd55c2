package lbe

import "encoding/binary"

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

// dict is one granularity's dictionary: insertion-ordered entries with a
// content index. Entries never change once inserted (append-only, frozen
// when full), matching the stream-preservation requirement of §2.2, so
// truncating to an earlier length undoes exactly the later insertions.
// Both are sized for a full dictionary up front, so inserting never
// allocates.
type dict[K comparable] struct {
	cap     int
	entries []K
	index   map[K]int32
}

func newDict[K comparable](capacity int) dict[K] {
	return dict[K]{cap: capacity, entries: make([]K, 0, capacity), index: make(map[K]int32, capacity)}
}

func (d *dict[K]) lookup(k K) (int, bool) {
	i, ok := d.index[k]
	return int(i), ok
}

// add inserts k if there is room and it is not already present.
func (d *dict[K]) add(k K) {
	if len(d.entries) >= d.cap {
		return
	}
	if _, ok := d.index[k]; ok {
		return
	}
	d.index[k] = int32(len(d.entries))
	d.entries = append(d.entries, k)
}

func (d *dict[K]) truncate(n int) {
	for _, k := range d.entries[n:] {
		delete(d.index, k)
	}
	d.entries = d.entries[:n]
}

func (d *dict[K]) reset() {
	clear(d.index)
	d.entries = d.entries[:0]
}

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
	switch lvl {
	case lvl32:
		return d.d32.lookup(c.word(i))
	case lvl64:
		return d.d64.lookup(c[i])
	case lvl128:
		return d.d128.lookup([2]uint64{c[2*i], c[2*i+1]})
	}
	return d.d256.lookup(*c)
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

func (d *dicts) reset() {
	d.d32.reset()
	d.d64.reset()
	d.d128.reset()
	d.d256.reset()
}

// failedRegions lists, in encoding order, the 64/128/256-bit regions of
// a chunk that did not compress as a single symbol: at most 1+2+4.
type failedRegions struct {
	n int
	r [7]struct{ lvl, i uint8 }
}

func (f *failedRegions) add(lvl, i int) {
	f.r[f.n].lvl, f.r[f.n].i = uint8(lvl), uint8(i)
	f.n++
}

// allocFailed performs LBE's post-chunk allocation: an entry for every
// failed region whose 32-bit words are all zero or in the 32-bit
// dictionary (the condition for a binary-tree entry to have valid leaf
// pointers). Children go first so parents can be expressed as trees
// over existing entries.
func (d *dicts) allocFailed(c *chunk, f *failedRegions) {
	if f.n == 0 {
		return
	}
	var known uint8 // bit w: word w is zero or in the 32-bit dictionary
	for w := 0; w < 8; w++ {
		if x := c.word(w); x == 0 {
			known |= 1 << w
		} else if _, ok := d.d32.index[x]; ok {
			known |= 1 << w
		}
	}
	for lvl := lvl64; lvl <= lvl256; lvl++ {
		for _, r := range f.r[:f.n] {
			words := uint8(1<<(1<<lvl)-1) << (int(r.i) << lvl)
			if int(r.lvl) != lvl || known&words != words {
				continue
			}
			switch lvl {
			case lvl64:
				d.d64.add(c[r.i])
			case lvl128:
				d.d128.add([2]uint64{c[2*r.i], c[2*r.i+1]})
			default:
				d.d256.add(*c)
			}
		}
	}
}
