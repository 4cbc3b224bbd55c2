package cache

import (
	"bytes"
	"fmt"
	"testing"

	"morc/internal/rng"
)

// refSetAssoc is the set-associative cache the flat arena replaced: a
// payload slice per line, cloned on every insert, and a replacement
// policy object per set. It is the differential oracle for SetAssoc.
type refSetAssoc struct {
	sets  int
	ways  int
	lines []refLine // sets*ways
	pols  []*refPolicy
	stats Stats
}

type refLine struct {
	valid bool
	dirty bool
	tag   uint64
	data  []byte
}

// refPolicy tracks replacement order for one set of n ways.
type refPolicy struct {
	kind ReplacementKind
	// order[i] is the recency/arrival rank of way i; higher = newer.
	order []uint64
	clock uint64
}

func (p *refPolicy) touch(i int) {
	if p.kind == LRU {
		p.clock++
		p.order[i] = p.clock
	}
}

func (p *refPolicy) insert(i int) {
	p.clock++
	p.order[i] = p.clock
}

// victim returns the way with the lowest rank, the lowest index on a tie.
func (p *refPolicy) victim() int {
	v, min := 0, p.order[0]
	for i := 1; i < len(p.order); i++ {
		if p.order[i] < min {
			v, min = i, p.order[i]
		}
	}
	return v
}

func newRefSetAssoc(sizeBytes, ways int, repl ReplacementKind) *refSetAssoc {
	sets := sizeBytes / (ways * LineSize)
	c := &refSetAssoc{sets: sets, ways: ways, lines: make([]refLine, sets*ways)}
	c.pols = make([]*refPolicy, sets)
	for i := range c.pols {
		c.pols[i] = &refPolicy{kind: repl, order: make([]uint64, ways)}
	}
	return c
}

func (c *refSetAssoc) setOf(addr uint64) int { return int(LineTag(addr) % uint64(c.sets)) }

func (c *refSetAssoc) find(addr uint64) int {
	la := LineAddr(addr)
	s := c.setOf(addr)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[s*c.ways+w]
		if l.valid && l.tag == la {
			return w
		}
	}
	return -1
}

func (c *refSetAssoc) Read(addr uint64) ReadResult {
	c.stats.Reads++
	if w := c.find(addr); w >= 0 {
		s := c.setOf(addr)
		c.pols[s].touch(w)
		c.stats.Hits++
		return ReadResult{Hit: true, Data: c.lines[s*c.ways+w].data}
	}
	c.stats.Misses++
	return ReadResult{}
}

func (c *refSetAssoc) insert(addr uint64, data []byte, dirty bool) []Writeback {
	la := LineAddr(addr)
	s := c.setOf(addr)
	w := c.find(addr)
	var wbs []Writeback
	if w < 0 {
		for i := 0; i < c.ways; i++ {
			if !c.lines[s*c.ways+i].valid {
				w = i
				break
			}
		}
		if w < 0 {
			w = c.pols[s].victim()
			v := &c.lines[s*c.ways+w]
			if v.dirty {
				wbs = append(wbs, Writeback{Addr: v.tag, Data: v.data})
				c.stats.MemWBs++
			}
		}
	}
	l := &c.lines[s*c.ways+w]
	wasDirty := l.valid && l.tag == la && l.dirty
	l.valid = true
	l.tag = la
	l.data = CloneLine(data)
	l.dirty = dirty || wasDirty
	c.pols[s].insert(w)
	return wbs
}

func (c *refSetAssoc) Fill(addr uint64, data []byte) []Writeback {
	c.stats.Fills++
	return c.insert(addr, data, false)
}

func (c *refSetAssoc) WriteBack(addr uint64, data []byte) []Writeback {
	c.stats.WriteBacks++
	return c.insert(addr, data, true)
}

func (c *refSetAssoc) Update(addr uint64, data []byte, dirty bool) bool {
	w := c.find(addr)
	if w < 0 {
		return false
	}
	s := c.setOf(addr)
	l := &c.lines[s*c.ways+w]
	l.data = append(l.data[:0], data...)
	if dirty {
		l.dirty = true
	}
	c.pols[s].touch(w)
	return true
}

func (c *refSetAssoc) Ratio() float64 {
	valid := 0
	for i := range c.lines {
		if c.lines[i].valid {
			valid++
		}
	}
	return float64(valid) / float64(len(c.lines))
}

// diffGeometry is one cache shape of the differential test.
type diffGeometry struct {
	repl       ReplacementKind
	sets, ways int
}

func (g diffGeometry) String() string {
	return fmt.Sprintf("%v/%dsets/%dways", map[ReplacementKind]string{LRU: "LRU", FIFO: "FIFO"}[g.repl], g.sets, g.ways)
}

// diffGeometries covers both policies, 1- to 16-way sets, and set
// counts that are powers of two (masked) and not (modulo), among them
// the 192 sets of a 96 KB-per-core 8-way LLC.
func diffGeometries() []diffGeometry {
	var gs []diffGeometry
	for _, repl := range []ReplacementKind{LRU, FIFO} {
		for _, ways := range []int{1, 4, 8, 16} {
			for _, sets := range []int{1, 4, 128, 3, 192} {
				gs = append(gs, diffGeometry{repl, sets, ways})
			}
		}
	}
	return gs
}

// differential drives one SetAssoc and the oracle through the same
// operations and fails t at the first divergence.
type differential struct {
	t     testing.TB
	g     diffGeometry
	c     *SetAssoc
	o     *refSetAssoc
	addrs []uint64 // the candidate lines: ways+2 per set in three sets
	op    int
}

func newDifferential(t testing.TB, g diffGeometry) *differential {
	size := g.sets * g.ways * LineSize
	d := &differential{t: t, g: g, c: NewSetAssoc(size, g.ways, g.repl), o: newRefSetAssoc(size, g.ways, g.repl)}
	for _, s := range []int{0, 1 % g.sets, g.sets - 1} {
		for k := 0; k < g.ways+2; k++ {
			d.addrs = append(d.addrs, uint64(s+k*g.sets)*LineSize)
		}
	}
	return d
}

// step runs one operation: kind picks Read, Fill, WriteBack, Update or
// the in-place store hit, pick the line (and a byte offset within it),
// val the data written.
func (d *differential) step(kind, pick uint64, val byte) {
	d.op++
	addr := d.addrs[pick%uint64(len(d.addrs))] + pick/uint64(len(d.addrs))%LineSize
	data := bytes.Repeat([]byte{val}, LineSize)
	data[0] = byte(d.op) // no two writes carry the same line
	var what string
	switch kind % 5 {
	case 0:
		what = "Read"
		got, want := d.c.Read(addr), d.o.Read(addr)
		if got.Hit != want.Hit || !bytes.Equal(got.Data, want.Data) {
			d.t.Fatalf("%v op %d: Read(%#x) = %v % x, oracle %v % x", d.g, d.op, addr, got.Hit, got.Data, want.Hit, want.Data)
		}
	case 1:
		what = "Fill"
		d.sameWritebacks(what, addr, d.c.Fill(addr, data), d.o.Fill(addr, data))
	case 2:
		what = "WriteBack"
		d.sameWritebacks(what, addr, d.c.WriteBack(addr, data), d.o.WriteBack(addr, data))
	case 3:
		what = "Update"
		dirty := val&1 == 1
		if got, want := d.c.Update(addr, data, dirty), d.o.Update(addr, data, dirty); got != want {
			d.t.Fatalf("%v op %d: Update(%#x) = %v, oracle %v", d.g, d.op, addr, got, want)
		}
	case 4:
		// The store hit: the arena cache mutates Read's own bytes and
		// marks them dirty; the oracle clones, mutates and updates.
		what = "store hit"
		got, want := d.c.Read(addr), d.o.Read(addr)
		if got.Hit != want.Hit {
			d.t.Fatalf("%v op %d: store Read(%#x) hit %v, oracle %v", d.g, d.op, addr, got.Hit, want.Hit)
		}
		if got.Hit {
			mutated := CloneLine(want.Data)
			for _, b := range [][]byte{got.Data, mutated} {
				b[val%LineSize] = byte(d.op)
				b[(val+1)%LineSize] = val
			}
			d.c.Update(addr, got.Data, true)
			d.o.Update(addr, mutated, true)
		}
	}
	d.same(what, addr)
}

func (d *differential) sameWritebacks(what string, addr uint64, got, want []Writeback) {
	if len(got) != len(want) {
		d.t.Fatalf("%v op %d: %s(%#x) wrote back %d lines, oracle %d", d.g, d.op, what, addr, len(got), len(want))
	}
	for i := range got {
		if got[i].Addr != want[i].Addr || !bytes.Equal(got[i].Data, want[i].Data) {
			d.t.Fatalf("%v op %d: %s(%#x) wrote back %#x % x, oracle %#x % x",
				d.g, d.op, what, addr, got[i].Addr, got[i].Data, want[i].Addr, want[i].Data)
		}
	}
}

// same compares the counters, the occupancy, the invariants and the
// layout of addr's set way by way: which way holds which line, its
// dirtiness and its bytes. The layout is what pins victim selection's
// tie-break, which fills a set's empty ways lowest index first.
func (d *differential) same(what string, addr uint64) {
	if got, want := *d.c.Stats(), d.o.stats; got != want {
		d.t.Fatalf("%v op %d: after %s(%#x) stats %+v, oracle %+v", d.g, d.op, what, addr, got, want)
	}
	if got, want := d.c.Ratio(), d.o.Ratio(); got != want {
		d.t.Fatalf("%v op %d: after %s(%#x) ratio %g, oracle %g", d.g, d.op, what, addr, got, want)
	}
	if err := d.c.CheckInvariants(); err != nil {
		d.t.Fatalf("%v op %d: after %s(%#x): %v", d.g, d.op, what, addr, err)
	}
	s := d.o.setOf(addr)
	for w := 0; w < d.g.ways; w++ {
		i := s*d.g.ways + w
		m, l := d.c.tags.meta[i], d.o.lines[i]
		if m.valid != l.valid || m.valid && (m.tag != l.tag || m.dirty != l.dirty || !bytes.Equal(d.c.line(i), l.data)) {
			d.t.Fatalf("%v op %d: after %s(%#x) set %d way %d holds %+v, oracle valid %v tag %#x dirty %v",
				d.g, d.op, what, addr, s, w, m, l.valid, l.tag, l.dirty)
		}
	}
}

func TestSetAssocMatchesOracle(t *testing.T) {
	for _, g := range diffGeometries() {
		d := newDifferential(t, g)
		r := rng.New(uint64(g.sets*100 + g.ways*2 + int(g.repl)))
		for i := 0; i < 3000; i++ {
			d.step(r.Uint64(), r.Uint64(), byte(r.Uint64()))
		}
	}
}

// FuzzSetAssoc drives the differential from fuzzer input: the first
// byte picks the geometry, then each three bytes are one operation.
func FuzzSetAssoc(f *testing.F) {
	f.Add([]byte{0, 1, 0, 7, 1, 3, 9, 0, 0, 1, 4, 0, 2, 1, 5})
	f.Add([]byte{17, 1, 0, 1, 1, 1, 2, 1, 2, 3, 4, 2, 5, 4, 4, 6, 1, 5, 1})
	f.Add(bytes.Repeat([]byte{39, 1, 6, 2, 4, 6, 9, 2, 11, 3}, 40))
	gs := diffGeometries()
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		d := newDifferential(t, gs[int(in[0])%len(gs)])
		for in = in[1:]; len(in) >= 3; in = in[3:] {
			d.step(uint64(in[0]), uint64(in[1]), in[2])
		}
	})
}
