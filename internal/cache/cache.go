// Package cache defines the last-level-cache contract shared by every
// organization in this repository (uncompressed, Adaptive, Decoupled, SC2
// and MORC) plus the uncompressed set-associative implementation, its
// replacement policies and the geometry check every cache shape passes.
//
// The simulator drives an LLC with three operations mirroring the MORC
// paper's §3.1: Read (demand lookup), Fill (insertion after a memory
// read), and WriteBack (dirty eviction arriving from a private L1).
// Operations return any dirty lines the LLC pushed out to memory so the
// simulator can account bandwidth, energy and backing-store updates.
package cache

import "fmt"

// LineSize is the cache line size in bytes used throughout the system
// (Table 5: 64B blocks).
const LineSize = 64

// LineAddr returns the line-aligned address.
func LineAddr(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// LineTag returns the line number (address divided by line size); this is
// the "tag" MORC compresses, since indirect caches cannot drop index bits.
func LineTag(addr uint64) uint64 { return addr / LineSize }

// Writeback is a dirty line leaving the LLC toward memory. Data is a
// buffer the cache that returned it owns and reuses: it stays valid
// until the next Fill or WriteBack on that cache.
type Writeback struct {
	Addr uint64
	Data []byte
}

// CloneLine returns a private copy of a line payload, for structures
// that retain a line past the call that delivered it while the caller
// keeps reusing its buffer. Its callers are the compressed baselines
// (baseline.Cache and baseline.Skewed), which store a copy on each
// insert and hand it out on reads and write-backs, the check harness's
// oracle, and morcperf's replay. SetAssoc and MORC never call it: they
// copy into storage they own.
func CloneLine(data []byte) []byte {
	//morclint:ignore hotalloc a retained copy of one line is the point: callers keep it past their buffer's reuse
	return append([]byte(nil), data...)
}

// ReadResult describes the outcome of a demand read.
type ReadResult struct {
	Hit bool
	// Data is the line, when Hit. It may be the cache's own storage: it
	// stays valid until the next Fill, WriteBack or Update on that
	// cache, and only a private cache's owner may write to it.
	Data []byte
	// ExtraCycles is latency beyond the base LLC access time —
	// decompression for compressed organizations (0 for uncompressed).
	// It is also charged on slow misses (e.g. MORC's LMT-aliased miss,
	// which must decompress tags before declaring the miss).
	ExtraCycles int
}

// LLC is a last-level cache organization. One rule covers the lines that
// cross it: an implementation copies the data passed to Fill and
// WriteBack and returns its own storage, which callers consume before
// the next mutating call: a read hit's Data until the next Fill,
// WriteBack or Update on that cache; the []Writeback that Fill or
// WriteBack returns, and each Writeback's Data, until the next Fill or
// WriteBack on it. SetAssoc and MORC reuse both buffers on every call.
type LLC interface {
	// Read performs a demand lookup.
	Read(addr uint64) ReadResult
	// Fill inserts a line fetched from memory (read miss path).
	Fill(addr uint64, data []byte) []Writeback
	// WriteBack inserts or updates a dirty line evicted from a private
	// cache (non-inclusive LLCs allocate on write-back).
	WriteBack(addr uint64, data []byte) []Writeback
	// Ratio returns the current effective compression ratio: valid line
	// bytes over data-store capacity (1.0 for uncompressed when full).
	Ratio() float64
	// Stats exposes the running counters.
	Stats() *Stats
}

// Probed is optionally implemented by LLC organizations that expose
// scheme-specific gauges beyond the common Stats counters. The telemetry
// layer reads probes at every epoch boundary, so implementations should
// be cheap relative to an epoch's worth of simulation (a full walk of
// the organization's metadata is fine; per-line decompression is not).
//
// Probe values are gauges sampled at the boundary: instantaneous
// fractions (occupancy, invalid share) or cumulative event counts (GC
// compactions), never per-epoch deltas — consumers difference cumulative
// probes themselves if they want rates.
type Probed interface {
	Probes() map[string]float64
}

// Stats are the counters every LLC maintains.
type Stats struct {
	Reads        uint64
	Hits         uint64
	Misses       uint64
	Fills        uint64
	WriteBacks   uint64 // write-backs received from L1
	MemWBs       uint64 // dirty lines evicted to memory
	ExtraCycles  uint64 // total decompression cycles charged
	Compressions uint64 // line-compression events (incl. trials)
	Decompressed uint64 // bytes of decompressed output produced
}

// HitRate returns hits/reads (0 when idle).
func (s *Stats) HitRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Reads)
}

// ReplacementKind selects a replacement policy.
type ReplacementKind int

// Supported replacement policies.
const (
	LRU ReplacementKind = iota
	FIFO
)

// SetAssoc is a conventional uncompressed set-associative cache. It is
// both the baseline LLC and the building block for the private L1s.
//
// Its state is flat, indexed by set*ways+way: tags and flags in meta,
// replacement ranks in rank (with one clock per set), and every line's
// payload in one arena of LineSize bytes per way. Fills and write-backs
// copy into the arena, Read returns the arena's own bytes, and a dirty
// victim is copied into victim and returned through wb, so no operation
// allocates.
type SetAssoc struct {
	sets, ways int
	// pow2 is set when sets is a power of two: setOf then masks the
	// line number with mask instead of taking it modulo sets.
	pow2 bool
	mask uint64
	repl ReplacementKind
	meta []way
	// rank orders a set's ways for replacement, higher = newer: the
	// recency (LRU) or arrival (FIFO) clock value of the way's last
	// touch or fill. A way that never held a line has rank 0, below
	// every filled way.
	rank  []uint64
	clock []uint64 // per set: the last rank handed out
	data  []byte   // the arena: sets*ways*LineSize bytes

	victim [LineSize]byte
	wb     [1]Writeback
	stats  Stats
}

// way is one way's tag and state.
type way struct {
	tag   uint64 // full line address
	valid bool
	dirty bool
}

// CheckGeometry reports whether a cache of sizeBytes with the given
// associativity can be built: both positive and the size a whole number
// of sets of ways lines. NewSetAssoc panics with its error; the LLC
// constructors apply it to their own geometry, and job validation calls
// it to reject such a configuration before it runs.
func CheckGeometry(sizeBytes, ways int) error {
	if sizeBytes <= 0 || ways <= 0 || ways > sizeBytes/LineSize || sizeBytes%(ways*LineSize) != 0 {
		return fmt.Errorf("cache: bad geometry size=%d ways=%d (want a positive multiple of ways×%d bytes)",
			sizeBytes, ways, LineSize)
	}
	return nil
}

// NewSetAssoc builds a cache of the given total size, which must pass
// CheckGeometry.
func NewSetAssoc(sizeBytes, ways int, repl ReplacementKind) *SetAssoc {
	if err := CheckGeometry(sizeBytes, ways); err != nil {
		panic(err)
	}
	sets := sizeBytes / (ways * LineSize)
	return &SetAssoc{
		sets:  sets,
		ways:  ways,
		pow2:  sets&(sets-1) == 0,
		mask:  uint64(sets - 1),
		repl:  repl,
		meta:  make([]way, sets*ways),
		rank:  make([]uint64, sets*ways),
		clock: make([]uint64, sets),
		data:  make([]byte, sizeBytes),
	}
}

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

func (c *SetAssoc) setOf(addr uint64) int {
	if c.pow2 {
		return int(LineTag(addr) & c.mask)
	}
	return int(LineTag(addr) % uint64(c.sets))
}

// find returns the set addr indexes to and the way holding it, or -1.
func (c *SetAssoc) find(addr uint64) (set, w int) {
	la := LineAddr(addr)
	set = c.setOf(addr)
	for w, m := range c.meta[set*c.ways : (set+1)*c.ways] {
		if m.valid && m.tag == la {
			return set, w
		}
	}
	return set, -1
}

// line returns way i's payload in the arena, capped so an append cannot
// reach the next way.
func (c *SetAssoc) line(i int) []byte {
	off := i * LineSize
	return c.data[off : off+LineSize : off+LineSize]
}

// touch records a use of way w of set s; FIFO ignores uses.
func (c *SetAssoc) touch(s, w int) {
	if c.repl == LRU {
		c.arrive(s, w)
	}
}

// arrive records the arrival of a line in way w of set s.
func (c *SetAssoc) arrive(s, w int) {
	c.clock[s]++
	c.rank[s*c.ways+w] = c.clock[s]
}

// victimWay returns the way of set s with the lowest rank, the lowest
// way index on a tie. Ways that never held a line rank 0, so they fill
// first, lowest index first.
func (c *SetAssoc) victimWay(s int) int {
	ranks := c.rank[s*c.ways : (s+1)*c.ways]
	v := 0
	for w, r := range ranks {
		if r < ranks[v] {
			v = w
		}
	}
	return v
}

// Read implements LLC. A hit's Data is the line in the arena: it stays
// valid until the next Fill, WriteBack or Update, and a private cache's
// owner may mutate it in place and then call Update.
func (c *SetAssoc) Read(addr uint64) ReadResult {
	c.stats.Reads++
	s, w := c.find(addr)
	if w < 0 {
		c.stats.Misses++
		return ReadResult{}
	}
	c.touch(s, w)
	c.stats.Hits++
	return ReadResult{Hit: true, Data: c.line(s*c.ways + w)}
}

// insert places data for addr (replacing any existing copy), returning a
// dirty victim if one was displaced.
func (c *SetAssoc) insert(addr uint64, data []byte, dirty bool) []Writeback {
	if len(data) != LineSize {
		panic(fmt.Sprintf("cache: insert of %d bytes", len(data)))
	}
	s, w := c.find(addr)
	var wbs []Writeback
	if w < 0 {
		w = c.victimWay(s)
		v := &c.meta[s*c.ways+w]
		if v.valid && v.dirty {
			copy(c.victim[:], c.line(s*c.ways+w))
			c.wb[0] = Writeback{Addr: v.tag, Data: c.victim[:]}
			wbs = c.wb[:]
			c.stats.MemWBs++
		}
		*v = way{tag: LineAddr(addr), valid: true}
	}
	i := s*c.ways + w
	c.meta[i].dirty = c.meta[i].dirty || dirty
	copy(c.line(i), data)
	c.arrive(s, w)
	return wbs
}

// Fill implements LLC. A returned write-back's Data is the cache's
// victim buffer: it stays valid until the next Fill or WriteBack.
func (c *SetAssoc) Fill(addr uint64, data []byte) []Writeback {
	c.stats.Fills++
	return c.insert(addr, data, false)
}

// WriteBack implements LLC, with Fill's lifetime for write-backs.
func (c *SetAssoc) WriteBack(addr uint64, data []byte) []Writeback {
	c.stats.WriteBacks++
	return c.insert(addr, data, true)
}

// Update overwrites the data of addr (marking it dirty when dirty is
// set) and reports whether the line was present. Private caches use it
// on store hits: data may be the slice Read returned for addr, mutated
// in place, and then only the dirty bit and the recency change.
func (c *SetAssoc) Update(addr uint64, data []byte, dirty bool) bool {
	s, w := c.find(addr)
	if w < 0 {
		return false
	}
	if len(data) != LineSize {
		panic(fmt.Sprintf("cache: update of %d bytes", len(data)))
	}
	i := s*c.ways + w
	if l := c.line(i); &data[0] != &l[0] {
		copy(l, data)
	}
	if dirty {
		c.meta[i].dirty = true
	}
	c.touch(s, w)
	return true
}

// Ratio implements LLC: an uncompressed cache's "compression ratio" is
// its occupancy (≤ 1).
func (c *SetAssoc) Ratio() float64 {
	valid := 0
	for _, m := range c.meta {
		if m.valid {
			valid++
		}
	}
	return float64(valid) / float64(len(c.meta))
}

// Stats implements LLC.
func (c *SetAssoc) Stats() *Stats { return &c.stats }

// Probes implements Probed: an uncompressed cache's only gauge is its
// occupancy.
func (c *SetAssoc) Probes() map[string]float64 {
	return map[string]float64{"occupancy": c.Ratio()}
}

// CheckInvariants verifies the cache's structural invariants: every
// valid line is line-aligned, stored in the set its address indexes to,
// and no set holds two copies of the same address; the replacement
// state is the one victim selection relies on (a valid way's rank is
// unique in its set and in [1, the set's clock], an empty way ranks 0
// and is clean); and the arena holds LineSize bytes per way. It exists
// for the internal/check differential harness; the compressed
// organizations have analogous (much deeper) checkers.
func (c *SetAssoc) CheckInvariants() error {
	n := c.sets * c.ways
	if len(c.meta) != n || len(c.rank) != n || len(c.clock) != c.sets || len(c.data) != n*LineSize {
		return fmt.Errorf("cache: state sized %d/%d/%d/%d for %d sets of %d ways",
			len(c.meta), len(c.rank), len(c.clock), len(c.data), c.sets, c.ways)
	}
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			i := s*c.ways + w
			l, r := &c.meta[i], c.rank[i]
			if !l.valid {
				if r != 0 || l.dirty {
					return fmt.Errorf("cache: set %d way %d is empty but ranks %d (dirty %v)", s, w, r, l.dirty)
				}
				continue
			}
			if l.tag != LineAddr(l.tag) {
				return fmt.Errorf("cache: set %d way %d holds unaligned address %#x", s, w, l.tag)
			}
			if c.setOf(l.tag) != s {
				return fmt.Errorf("cache: set %d way %d holds %#x, which indexes to set %d",
					s, w, l.tag, c.setOf(l.tag))
			}
			if r < 1 || r > c.clock[s] {
				return fmt.Errorf("cache: set %d way %d ranks %d, outside [1, %d]", s, w, r, c.clock[s])
			}
			for u := 0; u < w; u++ {
				o := s*c.ways + u
				if c.meta[o].valid && c.meta[o].tag == l.tag {
					return fmt.Errorf("cache: set %d holds duplicate copies of %#x", s, l.tag)
				}
				if c.meta[o].valid && c.rank[o] == r {
					return fmt.Errorf("cache: set %d ways %d and %d share rank %d", s, u, w, r)
				}
			}
		}
	}
	return nil
}

// assert interface compliance.
var _ LLC = (*SetAssoc)(nil)
