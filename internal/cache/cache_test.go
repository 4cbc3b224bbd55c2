package cache

import (
	"bytes"
	"testing"
	"testing/quick"

	"morc/internal/rng"
)

func lineOf(b byte) []byte {
	d := make([]byte, LineSize)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestLineHelpers(t *testing.T) {
	if LineAddr(0x1234) != 0x1200 {
		t.Fatalf("LineAddr = %#x", LineAddr(0x1234))
	}
	if LineTag(0x1240) != 0x49 {
		t.Fatalf("LineTag = %#x", LineTag(0x1240))
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	NewSetAssoc(1000, 3, LRU)
}

func TestCheckGeometry(t *testing.T) {
	cases := []struct {
		size, ways int
		ok         bool
	}{
		{32 * 1024, 4, true},
		{24 * 1024, 3, true},      // 128 sets of 3 ways
		{8 * 98304, 8, true},      // 1536 sets: not a power of two
		{98304, 8, true},          // 192 sets
		{32 * 1024, 0, false},     // no ways
		{32 * 1024, 3, false},     // 32 KB is no whole number of 3-way sets
		{1000, 4, false},          // not a whole number of lines
		{0, 8, false},             // empty
		{100000, 8, false},        // not a whole number of 8-way sets
		{-64, 1, false},           // negative
		{64, 2, false},            // fewer lines than ways
		{1 << 20, 1 << 58, false}, // ways×LineSize overflows
	}
	for _, c := range cases {
		if err := CheckGeometry(c.size, c.ways); (err == nil) != c.ok {
			t.Errorf("CheckGeometry(%d, %d) = %v, want ok %v", c.size, c.ways, err, c.ok)
		}
	}
}

func TestFillThenRead(t *testing.T) {
	c := NewSetAssoc(8*1024, 4, LRU)
	c.Fill(0x1000, lineOf(7))
	r := c.Read(0x1000)
	if !r.Hit || !bytes.Equal(r.Data, lineOf(7)) {
		t.Fatal("read after fill")
	}
	if r.ExtraCycles != 0 {
		t.Fatal("uncompressed cache charged extra cycles")
	}
	if miss := c.Read(0x2000); miss.Hit {
		t.Fatal("unexpected hit")
	}
}

func TestOffsetWithinLineHits(t *testing.T) {
	c := NewSetAssoc(8*1024, 4, LRU)
	c.Fill(0x1000, lineOf(1))
	if !c.Read(0x103F).Hit {
		t.Fatal("offset within line missed")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 ways, enough sets; map same set by spacing addresses sets*64 apart.
	c := NewSetAssoc(2*2*LineSize, 2, LRU) // 2 sets, 2 ways
	step := uint64(c.Sets() * LineSize)
	a, b, d := uint64(0), step, 2*step
	c.Fill(a, lineOf(1))
	c.Fill(b, lineOf(2))
	c.Read(a) // make a MRU
	c.Fill(d, lineOf(3))
	if c.Read(b).Hit {
		t.Fatal("LRU victim survived")
	}
	if !c.Read(a).Hit || !c.Read(d).Hit {
		t.Fatal("wrong line evicted")
	}
}

func TestFIFOEvictionIgnoresTouches(t *testing.T) {
	c := NewSetAssoc(2*2*LineSize, 2, FIFO)
	step := uint64(c.Sets() * LineSize)
	a, b, d := uint64(0), step, 2*step
	c.Fill(a, lineOf(1))
	c.Fill(b, lineOf(2))
	c.Read(a) // FIFO must ignore this
	c.Fill(d, lineOf(3))
	if c.Read(a).Hit {
		t.Fatal("FIFO kept oldest line despite touch")
	}
	if !c.Read(b).Hit {
		t.Fatal("FIFO evicted wrong line")
	}
}

func TestDirtyEvictionProducesWriteback(t *testing.T) {
	c := NewSetAssoc(2*1*LineSize, 1, LRU) // 2 sets, direct-mapped
	step := uint64(c.Sets() * LineSize)
	c.WriteBack(0, lineOf(9))
	wbs := c.Fill(step, lineOf(1))
	if len(wbs) != 1 || wbs[0].Addr != 0 || !bytes.Equal(wbs[0].Data, lineOf(9)) {
		t.Fatalf("expected dirty writeback of addr 0, got %+v", wbs)
	}
	// Clean eviction: no writeback.
	wbs = c.Fill(2*step, lineOf(2))
	if len(wbs) != 0 {
		t.Fatalf("clean eviction produced writeback: %+v", wbs)
	}
}

// evictsDirty reports whether filling the line that conflicts with addr
// in a direct-mapped cache writes addr back, and with which data.
func evictsDirty(c *SetAssoc, addr uint64) (data []byte, dirty bool) {
	wbs := c.Fill(addr+uint64(c.Sets()*LineSize), lineOf(0xEE))
	if len(wbs) != 1 || wbs[0].Addr != addr {
		return nil, false
	}
	return wbs[0].Data, true
}

func TestFillPreservesDirtiness(t *testing.T) {
	c := NewSetAssoc(4*LineSize, 1, LRU)
	c.WriteBack(0, lineOf(5)) // dirty
	c.Fill(0, lineOf(6))      // refill same line must stay dirty
	if data, dirty := evictsDirty(c, 0); !dirty || !bytes.Equal(data, lineOf(6)) {
		t.Fatal("refill dropped dirtiness")
	}
}

func TestUpdate(t *testing.T) {
	c := NewSetAssoc(8*1024, 4, LRU)
	if c.Update(0x40, lineOf(1), true) {
		t.Fatal("update hit on absent line")
	}
	c.Fill(0x40, lineOf(1))
	if !c.Update(0x40, lineOf(2), true) {
		t.Fatal("update missed present line")
	}
	r := c.Read(0x40)
	if !bytes.Equal(r.Data, lineOf(2)) {
		t.Fatal("update did not change data")
	}
	// A store hit mutates Read's own bytes, then marks them dirty: the
	// write-back carries the mutation.
	d := NewSetAssoc(4*LineSize, 1, LRU)
	d.Fill(0x40, lineOf(1))
	r = d.Read(0x40)
	r.Data[3] = 42
	if !d.Update(0x40, r.Data, true) {
		t.Fatal("in-place update missed present line")
	}
	want := lineOf(1)
	want[3] = 42
	if data, dirty := evictsDirty(d, 0x40); !dirty || !bytes.Equal(data, want) {
		t.Fatal("update did not mark dirty, or lost the in-place store")
	}
}

func TestRatioIsOccupancy(t *testing.T) {
	c := NewSetAssoc(4*LineSize, 1, LRU)
	if c.Ratio() != 0 {
		t.Fatal("empty cache ratio")
	}
	c.Fill(0, lineOf(0))
	c.Fill(LineSize, lineOf(0))
	if c.Ratio() != 0.5 {
		t.Fatalf("ratio = %g, want 0.5", c.Ratio())
	}
}

func TestStatsCounting(t *testing.T) {
	c := NewSetAssoc(8*1024, 4, LRU)
	c.Read(0) // miss
	c.Fill(0, lineOf(0))
	c.Read(0) // hit
	c.WriteBack(64, lineOf(1))
	s := c.Stats()
	if s.Reads != 2 || s.Hits != 1 || s.Misses != 1 || s.Fills != 1 || s.WriteBacks != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %g", s.HitRate())
	}
}

func TestDataIsCopied(t *testing.T) {
	c := NewSetAssoc(8*1024, 4, LRU)
	d := lineOf(1)
	c.Fill(0, d)
	d[0] = 99 // caller mutation must not leak in
	if c.Read(0).Data[0] == 99 {
		t.Fatal("cache aliased caller buffer")
	}
}

func TestInvariantsUnderMixedOps(t *testing.T) {
	for _, repl := range []ReplacementKind{LRU, FIFO} {
		c := NewSetAssoc(4*2*LineSize, 2, repl) // 4 sets, 2 ways: evictions happen fast
		r := rng.New(42)
		for i := 0; i < 2000; i++ {
			addr := uint64(r.Intn(64)) * LineSize
			switch r.Intn(4) {
			case 0:
				c.Fill(addr, lineOf(byte(i)))
			case 1:
				c.WriteBack(addr, lineOf(byte(i)))
			case 2:
				c.Read(addr)
			case 3:
				c.Update(addr, lineOf(byte(i)), true)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("repl %v, after op %d on %#x: %v", repl, i, addr, err)
			}
		}
	}
}

func TestNoPhantomHitsProperty(t *testing.T) {
	// Property: a line is hit iff it was inserted and not since evicted;
	// verified against a reference map for a direct-mapped cache.
	f := func(seed uint64, ops []uint8) bool {
		c := NewSetAssoc(8*LineSize, 1, LRU) // 8 sets, direct-mapped
		ref := map[uint64]bool{}             // line -> present
		setOwner := map[int]uint64{}
		r := rng.New(seed)
		for range ops {
			addr := uint64(r.Intn(32)) * LineSize
			set := int(LineTag(addr) % 8)
			if r.Bool(0.5) {
				res := c.Read(addr)
				if res.Hit != ref[addr] {
					return false
				}
			} else {
				c.Fill(addr, lineOf(byte(addr)))
				if prev, ok := setOwner[set]; ok && prev != addr {
					ref[prev] = false
				}
				setOwner[set] = addr
				ref[addr] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
