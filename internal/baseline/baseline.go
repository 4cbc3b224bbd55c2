// Package baseline implements the three best-of-breed compressed caches
// the MORC paper compares against (§4, §6):
//
//   - Adaptive (Alameldeen & Wood, ISCA 2004): set-associative with 2×
//     tags, 8-byte segments allocated contiguously within the set, C-Pack
//     payload compression. Contiguous allocation means a line that grows
//     on a write-back forces the segments behind it to move —
//     defragmentation — which this model counts for the energy analysis.
//   - Decoupled (DCC; Sardashti & Wood, MICRO 2013): 4× super-tags and
//     decoupled 16-byte segments that can sit anywhere in the set, which
//     eliminates defragmentation, with C-Pack payload compression.
//   - SC2 (Arelakis & Stenström, ISCA 2014): 4× tags and Huffman
//     statistical compression against a shared, software-managed value
//     dictionary built from sampled fills.
//
// All three are evaluated with perfect LRU (paper §4) and charge the
// fixed 4-cycle decompression latency on hits.
package baseline

import (
	"fmt"

	"morc/internal/cache"
	"morc/internal/compress/cpack"
	"morc/internal/compress/huffman"
)

// Kind selects a baseline organization.
type Kind int

// The three prior-work organizations.
const (
	Adaptive Kind = iota
	Decoupled
	SC2
)

// String returns the paper's name for the scheme.
func (k Kind) String() string {
	switch k {
	case Adaptive:
		return "Adaptive"
	case Decoupled:
		return "Decoupled"
	case SC2:
		return "SC2"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// DecompressionCycles is the extra hit latency all three prior-work
// schemes add (§4).
const DecompressionCycles = 4

// ways is the base associativity (Table 5).
const ways = 8

// Config parameterizes a baseline compressed cache. Adaptive and
// Decoupled compress with C-Pack, as the paper evaluates them (§4);
// SC2 with its Huffman coder over a dictionary of
// huffman.DefaultMaxValues values.
type Config struct {
	CacheBytes int
	Kind       Kind
	// SC2SampleWords is the number of sampled words after which SC2
	// builds its Huffman code.
	SC2SampleWords uint64
}

// DefaultConfig returns the paper's configuration for kind.
func DefaultConfig(kind Kind, cacheBytes int) Config {
	return Config{
		CacheBytes:     cacheBytes,
		Kind:           kind,
		SC2SampleWords: 1 << 16,
	}
}

// params derived per kind.
func (c Config) tagFactor() int {
	if c.Kind == Adaptive {
		return 2 // Adaptive's 2x tags cap compression at 2x
	}
	return 4 // Decoupled and SC2 provision 4x tags
}

func (c Config) segBytes() int {
	if c.Kind == Decoupled {
		return 16 // DCC's larger decoupled segments
	}
	return 8 // Adaptive/SC2 8-byte segments
}

type compLine struct {
	valid    bool
	dirty    bool
	addr     uint64
	segments int
	data     []byte
	seq      uint64
}

type set struct {
	lines []compLine // tagFactor * ways entries
	used  int        // segments in use
}

// Stats extends the common counters with baseline-specific events.
type Stats struct {
	cache.Stats
	Defrags     uint64 // Adaptive: compaction events from size changes
	SC2Rebuilds uint64 // SC2: dictionary constructions
	Expansions  uint64 // stored-uncompressed lines (compression expanded)
}

// Cache is a compressed set-associative LLC.
type Cache struct {
	cfg        Config
	sets       []set
	segsPerSet int
	clock      uint64
	st         Stats

	// SC2 state.
	sampler *huffman.Sampler
	code    *huffman.Code
	sampled uint64
}

// Validate checks the geometry New builds: cache.CheckGeometry of the
// data store's capacity and ways.
func (c Config) Validate() error {
	if err := cache.CheckGeometry(c.CacheBytes, ways); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	return nil
}

// New builds a baseline cache; cfg must pass Validate.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.CacheBytes / (ways * cache.LineSize)
	c := &Cache{cfg: cfg, segsPerSet: ways * cache.LineSize / cfg.segBytes()}
	c.sets = make([]set, nSets)
	for i := range c.sets {
		c.sets[i].lines = make([]compLine, ways*cfg.tagFactor())
	}
	if cfg.Kind == SC2 {
		c.sampler = huffman.NewSampler()
	}
	return c
}

// Stats implements cache.LLC.
func (c *Cache) Stats() *cache.Stats { return &c.st.Stats }

// BaselineStats returns the extended counters.
func (c *Cache) BaselineStats() *Stats { return &c.st }

// Probes implements cache.Probed with the compressed-baseline gauges:
// segment occupancy, the uncompressed-line share, and the cumulative
// reorganization events (Adaptive defragmentations, SC2 dictionary
// rebuilds).
func (c *Cache) Probes() map[string]float64 {
	used, lines, expanded := 0, 0, 0
	for si := range c.sets {
		used += c.sets[si].used
		for i := range c.sets[si].lines {
			l := &c.sets[si].lines[i]
			if l.valid {
				lines++
				if l.segments*c.cfg.segBytes() >= cache.LineSize {
					expanded++
				}
			}
		}
	}
	p := map[string]float64{
		"seg_occupancy": float64(used) / float64(c.segsPerSet*len(c.sets)),
		"defrags":       float64(c.st.Defrags),
		"sc2_rebuilds":  float64(c.st.SC2Rebuilds),
		"expansions":    float64(c.st.Expansions),
	}
	if lines > 0 {
		p["uncompressed_frac"] = float64(expanded) / float64(lines)
	}
	return p
}

func (c *Cache) setOf(addr uint64) *set {
	return &c.sets[cache.LineTag(addr)%uint64(len(c.sets))]
}

func (s *set) find(addr uint64) int {
	la := cache.LineAddr(addr)
	for i := range s.lines {
		if s.lines[i].valid && s.lines[i].addr == la {
			return i
		}
	}
	return -1
}

// compressedSegments sizes a line under the scheme's codec, capped at the
// uncompressed size (expanding lines are stored raw).
func (c *Cache) compressedSegments(data []byte) int {
	var bits int
	switch {
	case c.cfg.Kind != SC2:
		bits = cpack.CompressedBits(data)
	case c.code == nil:
		bits = cache.LineSize * 8
	default:
		bits = c.code.CompressedBits(data)
	}
	c.st.Compressions++
	bytes := (bits + 7) / 8
	if bytes >= cache.LineSize {
		bytes = cache.LineSize
		c.st.Expansions++
	}
	seg := c.cfg.segBytes()
	n := (bytes + seg - 1) / seg
	if n == 0 {
		n = 1 // a line always occupies at least one segment
	}
	return n
}

// Read implements cache.LLC.
func (c *Cache) Read(addr uint64) cache.ReadResult {
	c.st.Reads++
	s := c.setOf(addr)
	if i := s.find(addr); i >= 0 {
		c.clock++
		s.lines[i].seq = c.clock
		c.st.Hits++
		c.st.ExtraCycles += DecompressionCycles
		c.st.Decompressed += cache.LineSize
		return cache.ReadResult{Hit: true, Data: s.lines[i].data, ExtraCycles: DecompressionCycles}
	}
	c.st.Misses++
	return cache.ReadResult{}
}

// Fill implements cache.LLC.
func (c *Cache) Fill(addr uint64, data []byte) []cache.Writeback {
	c.st.Fills++
	if c.cfg.Kind == SC2 {
		c.sample(data)
	}
	return c.insert(addr, data, false)
}

// WriteBack implements cache.LLC.
func (c *Cache) WriteBack(addr uint64, data []byte) []cache.Writeback {
	c.st.WriteBacks++
	if c.cfg.Kind == SC2 {
		c.sample(data)
	}
	return c.insert(addr, data, true)
}

// sample feeds SC2's software dictionary-construction flow.
func (c *Cache) sample(data []byte) {
	c.sampler.SampleLine(data)
	c.sampled += uint64(len(data) / 4)
	if c.code == nil && c.sampled >= c.cfg.SC2SampleWords {
		c.code = huffman.Build(c.sampler, huffman.DefaultMaxValues)
		c.st.SC2Rebuilds++
	}
}

func (c *Cache) insert(addr uint64, data []byte, dirty bool) []cache.Writeback {
	if len(data) != cache.LineSize {
		panic(fmt.Sprintf("baseline: insert of %d bytes", len(data)))
	}
	la := cache.LineAddr(addr)
	s := c.setOf(addr)
	need := c.compressedSegments(data)
	var wbs []cache.Writeback

	if i := s.find(addr); i >= 0 {
		// In-place update: size may change.
		l := &s.lines[i]
		if need != l.segments && c.cfg.Kind == Adaptive {
			// Contiguous segments: resizing moves every line behind this
			// one (§2.2's defragmentation cost).
			c.st.Defrags++
		}
		for s.used-l.segments+need > c.segsPerSet {
			wbs = append(wbs, c.evictLRU(s, i)...)
		}
		s.used += need - l.segments
		l.segments = need
		l.data = append(l.data[:0], data...)
		l.dirty = l.dirty || dirty
		c.clock++
		l.seq = c.clock
		return wbs
	}

	// Need a free tag and enough segments.
	slot := -1
	for i := range s.lines {
		if !s.lines[i].valid {
			slot = i
			break
		}
	}
	for slot < 0 || s.used+need > c.segsPerSet {
		wbs = append(wbs, c.evictLRU(s, -1)...)
		if slot < 0 {
			for i := range s.lines {
				if !s.lines[i].valid {
					slot = i
					break
				}
			}
		}
	}
	l := &s.lines[slot]
	c.clock++
	*l = compLine{
		valid:    true,
		dirty:    dirty,
		addr:     la,
		segments: need,
		data:     cache.CloneLine(data),
		seq:      c.clock,
	}
	s.used += need
	return wbs
}

// evictLRU removes the least-recently-used valid line (skipping index
// keep), returning a write-back if it was dirty.
func (c *Cache) evictLRU(s *set, keep int) []cache.Writeback {
	victim := -1
	for i := range s.lines {
		if i == keep || !s.lines[i].valid {
			continue
		}
		if victim < 0 || s.lines[i].seq < s.lines[victim].seq {
			victim = i
		}
	}
	if victim < 0 {
		panic("baseline: no victim available")
	}
	l := &s.lines[victim]
	var wbs []cache.Writeback
	if l.dirty {
		c.st.MemWBs++
		wbs = append(wbs, cache.Writeback{Addr: l.addr, Data: l.data})
	}
	s.used -= l.segments
	l.valid = false
	return wbs
}

// Ratio implements cache.LLC: valid uncompressed bytes over capacity.
func (c *Cache) Ratio() float64 {
	valid := 0
	for si := range c.sets {
		for i := range c.sets[si].lines {
			if c.sets[si].lines[i].valid {
				valid++
			}
		}
	}
	return float64(valid*cache.LineSize) / float64(c.cfg.CacheBytes)
}

// CheckInvariants validates occupancy, tag-limit, and per-line
// structural invariants (tests).
func (c *Cache) CheckInvariants() error {
	for si := range c.sets {
		s := &c.sets[si]
		used, valid := 0, 0
		seen := make(map[uint64]bool)
		for i := range s.lines {
			if !s.lines[i].valid {
				continue
			}
			l := &s.lines[i]
			if l.addr != cache.LineAddr(l.addr) {
				return fmt.Errorf("set %d: unaligned address %#x", si, l.addr)
			}
			if c.setOf(l.addr) != s {
				return fmt.Errorf("set %d: holds %#x, which indexes elsewhere", si, l.addr)
			}
			if seen[l.addr] {
				return fmt.Errorf("set %d: duplicate copies of %#x", si, l.addr)
			}
			seen[l.addr] = true
			if len(l.data) != cache.LineSize {
				return fmt.Errorf("set %d: %#x stores %d bytes, want %d", si, l.addr, len(l.data), cache.LineSize)
			}
			if l.segments < 1 || l.segments > c.segsPerSet {
				return fmt.Errorf("set %d: %#x occupies %d segments (valid range 1..%d)",
					si, l.addr, l.segments, c.segsPerSet)
			}
			used += l.segments
			valid++
		}
		if used != s.used {
			return fmt.Errorf("set %d: used %d, recorded %d", si, used, s.used)
		}
		if used > c.segsPerSet {
			return fmt.Errorf("set %d: %d segments exceed %d", si, used, c.segsPerSet)
		}
		if valid > ways*c.cfg.tagFactor() {
			return fmt.Errorf("set %d: %d lines exceed tag limit %d", si, valid, ways*c.cfg.tagFactor())
		}
	}
	return nil
}

var _ cache.LLC = (*Cache)(nil)
