package trace

import "morc/internal/cache"

// lineStore holds the lines written back to memory. Each address's
// record, its address and latest 64 bytes, is appended in first-write
// order to fixed pages of pageLines records. Pages never move and hold
// no pointer, so adding one copies no line and the garbage collector
// scans only the page list. An open-addressing index, linear-probed
// from each address's home slot, maps an address to its record's
// number; at half load it doubles, rehashing only itself from the
// records' addresses. A write to a stored address overwrites its record
// in place.
type lineStore struct {
	pages []*linePage
	n     int     // records
	index []int32 // per slot, record number + 1; 0 is an empty slot
}

// pageLines is the number of records a page holds.
const pageLines = 1024

// minIndex is the index's first size in slots, a power of two.
const minIndex = 16

type linePage [pageLines]storedLine

// storedLine is one written-back line.
type storedLine struct {
	addr uint64 // line-aligned
	data [cache.LineSize]byte
}

// rec returns record number i.
func (s *lineStore) rec(i int) *storedLine { return &s.pages[i/pageLines][i%pageLines] }

// home is la's first slot in an index of size slots.
func home(la uint64, size int) int { return int(mix(la) & uint64(size-1)) }

// probe returns la's slot in the index and its record, or the empty
// slot where la's number would go and nil.
func (s *lineStore) probe(la uint64) (slot int, r *storedLine) {
	mask := len(s.index) - 1
	for i := home(la, len(s.index)); ; i = (i + 1) & mask {
		n := s.index[i]
		if n == 0 {
			return i, nil
		}
		if r := s.rec(int(n) - 1); r.addr == la {
			return i, r
		}
	}
}

// find returns la's record, or nil if la was never written.
func (s *lineStore) find(la uint64) *storedLine {
	if s.n == 0 {
		return nil
	}
	_, r := s.probe(la)
	return r
}

// put stores data as la's latest line.
func (s *lineStore) put(la uint64, data []byte) {
	if len(s.index) == 0 {
		s.index = make([]int32, minIndex)
	}
	slot, r := s.probe(la)
	if r != nil {
		copy(r.data[:], data)
		return
	}
	if 2*(s.n+1) > len(s.index) {
		s.grow()
		slot, _ = s.probe(la)
	}
	if s.n%pageLines == 0 {
		s.pages = append(s.pages, new(linePage))
	}
	r = s.rec(s.n)
	r.addr = la
	copy(r.data[:], data)
	s.n++
	s.index[slot] = int32(s.n)
}

// grow doubles the index and re-enters every record's number.
func (s *lineStore) grow() {
	s.index = make([]int32, 2*len(s.index))
	mask := len(s.index) - 1
	for n := 1; n <= s.n; n++ {
		i := home(s.rec(n-1).addr, len(s.index))
		for s.index[i] != 0 {
			i = (i + 1) & mask
		}
		s.index[i] = int32(n)
	}
}
