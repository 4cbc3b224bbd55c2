package baseline

import (
	"fmt"

	"morc/internal/cache"
	"morc/internal/compress/cpack"
)

// Skewed implements the Skewed Compressed Cache (Sardashti, Seznec &
// Wood, MICRO 2014), which the MORC paper's related work (§6) describes
// as performing like Decoupled while being easier to implement.
//
// The organization divides the ways into groups by compressed-size class
// (super-blocks in the original; modelled here at line granularity).
// Each size class uses its own index hash ("skew"), so lines of the same
// compressibility pack together: a way-group holding 8-byte sublines
// fits 8 compressed lines per 64B physical line slot, a 16-byte group 4,
// and so on. Tags are provisioned per packed slot, bounding compression
// at the smallest subline granularity (8x here, though C-Pack rarely
// sustains it).
type Skewed struct {
	ways   int // physical ways (each holds one 64B data slot per set)
	sets   int
	groups []skewGroup
	clock  uint64
	st     Stats
	// wb holds the write-backs the last Fill or WriteBack returned, as
	// copies: the victim's slot takes the inserted line in the same call.
	wb cache.WritebackBuffer
}

// skewGroup is a set of ways dedicated to one compressed-size class.
type skewGroup struct {
	subBytes int // compressed subline size this group packs
	ways     int
	// lines[set*ways*perSlot + way*perSlot + slot]
	lines []compLine
	hash  uint64 // index skew
}

// ValidateSkewed checks the geometry NewSkewed builds for cacheBytes:
// cache.CheckGeometry of the capacity over the base associativity.
func ValidateSkewed(cacheBytes int) error {
	if err := cache.CheckGeometry(cacheBytes, ways); err != nil {
		return fmt.Errorf("baseline: skewed: %w", err)
	}
	return nil
}

// NewSkewed builds a skewed compressed cache of the given capacity with
// the paper-standard 8 ways: two ways each for 8/16/32/64-byte size
// classes. cacheBytes must pass ValidateSkewed.
func NewSkewed(cacheBytes int) *Skewed {
	if err := ValidateSkewed(cacheBytes); err != nil {
		panic(err)
	}
	sets := cacheBytes / (ways * cache.LineSize)
	s := &Skewed{ways: ways, sets: sets}
	classes := []int{8, 16, 32, 64}
	for gi, sub := range classes {
		per := cache.LineSize / sub
		g := skewGroup{
			subBytes: sub,
			ways:     2,
			lines:    make([]compLine, sets*2*per),
			hash:     0x9e3779b97f4a7c15 * uint64(gi+1),
		}
		s.groups = append(s.groups, g)
	}
	return s
}

// classOf returns the group index whose subline fits the compressed
// size.
func (s *Skewed) classOf(bits int) int {
	bytes := (bits + 7) / 8
	for gi := range s.groups {
		if bytes <= s.groups[gi].subBytes {
			return gi
		}
	}
	return len(s.groups) - 1
}

func (s *Skewed) setOf(g *skewGroup, addr uint64) int {
	h := (cache.LineTag(addr) * g.hash) >> 16
	return int(h % uint64(s.sets))
}

// slots returns the slice of packed line slots for addr's set in group g.
func (s *Skewed) slots(gi int, addr uint64) []compLine {
	g := &s.groups[gi]
	per := cache.LineSize / g.subBytes
	set := s.setOf(g, addr)
	width := g.ways * per
	return g.lines[set*width : (set+1)*width]
}

// find locates addr in any group.
func (s *Skewed) find(addr uint64) (gi int, li *compLine) {
	la := cache.LineAddr(addr)
	for gi := range s.groups {
		sl := s.slots(gi, addr)
		for i := range sl {
			if sl[i].valid && sl[i].addr == la {
				return gi, &sl[i]
			}
		}
	}
	return -1, nil
}

// Read implements cache.LLC.
func (s *Skewed) Read(addr uint64) cache.ReadResult {
	s.st.Reads++
	if _, l := s.find(addr); l != nil {
		s.clock++
		l.seq = s.clock
		s.st.Hits++
		s.st.ExtraCycles += DecompressionCycles
		s.st.Decompressed += cache.LineSize
		return cache.ReadResult{Hit: true, Data: l.data[:], ExtraCycles: DecompressionCycles}
	}
	s.st.Misses++
	return cache.ReadResult{}
}

// Fill implements cache.LLC.
func (s *Skewed) Fill(addr uint64, data []byte) []cache.Writeback {
	s.st.Fills++
	return s.insert(addr, data, false)
}

// WriteBack implements cache.LLC.
func (s *Skewed) WriteBack(addr uint64, data []byte) []cache.Writeback {
	s.st.WriteBacks++
	return s.insert(addr, data, true)
}

func (s *Skewed) insert(addr uint64, data []byte, dirty bool) []cache.Writeback {
	if len(data) != cache.LineSize {
		panic(fmt.Sprintf("baseline: skewed insert of %d bytes", len(data)))
	}
	la := cache.LineAddr(addr)
	s.wb.Reset()
	// Drop any existing copy (its size class may change).
	if _, l := s.find(addr); l != nil {
		if l.dirty && !dirty {
			// Keep dirtiness across refills.
			dirty = true
		}
		l.valid = false
	}
	bits := cpack.CompressedBits(data)
	s.st.Compressions++
	if (bits+7)/8 >= cache.LineSize {
		s.st.Expansions++ // stored in the 64-byte class, uncompressed
	}
	gi := s.classOf(bits)
	sl := s.slots(gi, addr)
	// Free slot, else LRU within the skewed set.
	victim := -1
	for i := range sl {
		if !sl[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(sl); i++ {
			if sl[i].seq < sl[victim].seq {
				victim = i
			}
		}
		if sl[victim].dirty {
			s.st.MemWBs++
			s.wb.Add(sl[victim].addr, &sl[victim].data)
		}
	}
	s.clock++
	sl[victim] = compLine{
		valid: true, dirty: dirty, addr: la,
		segments: 1, seq: s.clock, data: [cache.LineSize]byte(data),
	}
	return s.wb.Writebacks()
}

// Ratio implements cache.LLC.
func (s *Skewed) Ratio() float64 {
	valid := 0
	for gi := range s.groups {
		for i := range s.groups[gi].lines {
			if s.groups[gi].lines[i].valid {
				valid++
			}
		}
	}
	return float64(valid*cache.LineSize) / float64(s.sets*s.ways*cache.LineSize)
}

// Stats implements cache.LLC.
func (s *Skewed) Stats() *cache.Stats { return &s.st.Stats }

// BaselineStats returns the extended counters.
func (s *Skewed) BaselineStats() *Stats { return &s.st }

// Probes implements cache.Probed: overall occupancy plus per-size-class
// slot occupancy (how well each skew group's compressibility class is
// utilized) and the cumulative expansion count.
func (s *Skewed) Probes() map[string]float64 {
	p := map[string]float64{
		"occupancy":  s.Ratio(),
		"expansions": float64(s.st.Expansions),
	}
	for _, g := range s.groups {
		valid := 0
		for i := range g.lines {
			if g.lines[i].valid {
				valid++
			}
		}
		p[fmt.Sprintf("skew_occupancy_%db", g.subBytes)] =
			float64(valid) / float64(len(g.lines))
	}
	return p
}

// CheckInvariants validates the packing (tests): no address is present
// twice across any group, and every valid line is line-aligned and sits
// in the set its group's skew hash indexes it to.
func (s *Skewed) CheckInvariants() error {
	seen := map[uint64]int{}
	for gi := range s.groups {
		g := &s.groups[gi]
		per := cache.LineSize / g.subBytes
		width := g.ways * per
		for i := range g.lines {
			l := &g.lines[i]
			if !l.valid {
				continue
			}
			seen[l.addr]++
			if seen[l.addr] > 1 {
				return fmt.Errorf("line %#x present %d times", l.addr, seen[l.addr])
			}
			if l.addr != cache.LineAddr(l.addr) {
				return fmt.Errorf("group %d: unaligned address %#x", gi, l.addr)
			}
			if got, want := i/width, s.setOf(g, l.addr); got != want {
				return fmt.Errorf("group %d: %#x stored in set %d, hashes to set %d", gi, l.addr, got, want)
			}
		}
	}
	return nil
}

var _ cache.LLC = (*Skewed)(nil)
