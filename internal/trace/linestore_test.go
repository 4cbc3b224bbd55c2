package trace

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"morc/internal/cache"
	"morc/internal/rng"
)

// storeRun drives a Memory's written lines and a map oracle with the
// same operations. A line never written must read as a Memory of the
// same profile that was never written synthesizes it.
type storeRun struct {
	t        testing.TB
	m, clean *Memory
	oracle   map[uint64][cache.LineSize]byte
	fresh    uint64 // lines written by bursts, at freshBase upward
	writes   uint64 // stamps each written line's contents
}

// The operations' address ranges, disjoint: hotLines hot lines from
// address 0, bursts of never-used lines from freshBase, and lines no
// operation writes from coldBase.
const (
	hotLines  = 64
	freshBase = 1 << 40
	coldBase  = 1 << 44
)

// sameHome returns 16 line addresses that share one home slot in
// every index of up to 1<<16 slots, found once: ops write the first 8
// and only read the rest, so writes and reads probe through one
// cluster of slots.
var sameHome = sync.OnceValue(func() []uint64 {
	const size = 1 << 16
	base := uint64(1 << 48)
	want := home(base, size)
	addrs := []uint64{base}
	for la := base + cache.LineSize; len(addrs) < 16; la += cache.LineSize {
		if home(la, size) == want {
			addrs = append(addrs, la)
		}
	}
	return addrs
})

func newStoreRun(t testing.TB) *storeRun {
	p := MustGet("gcc")
	return &storeRun{t: t, m: NewMemory(p), clean: NewMemory(p), oracle: map[uint64][cache.LineSize]byte{}}
}

// write stores fresh contents at la in both the Memory and the oracle.
func (s *storeRun) write(la uint64) {
	s.writes++
	var d [cache.LineSize]byte
	for i := 0; i < cache.LineSize; i += 8 {
		binary.LittleEndian.PutUint64(d[i:], mix(s.writes<<3+uint64(i)))
	}
	s.m.WriteLine(la, d[:])
	s.oracle[la] = d
}

// read checks the line the Memory returns for la against the oracle.
func (s *storeRun) read(la uint64) {
	s.t.Helper()
	var got, want [cache.LineSize]byte
	s.m.ReadLineInto(got[:], la)
	d, written := s.oracle[la]
	if written {
		want = d
	} else {
		s.clean.ReadLineInto(want[:], la)
	}
	if got != want {
		s.t.Fatalf("line %#x (written %v, %d lines stored): read %x, want %x", la, written, len(s.oracle), got[:8], want[:8])
	}
}

// step runs one operation; op and arg come from a random stream or a
// fuzzer's input.
func (s *storeRun) step(op, arg byte) {
	s.t.Helper()
	switch op % 7 {
	case 0: // write a hot line, the first time or over its record
		s.write(uint64(arg%hotLines) * cache.LineSize)
	case 1: // read a hot line, written or not
		s.read(uint64(arg%hotLines) * cache.LineSize)
	case 2: // write one of the lines that share a home slot
		s.write(sameHome()[arg%8])
	case 3: // read one of the lines that share a home slot, written or not
		s.read(sameHome()[arg%16])
	case 4: // read a line no operation writes
		s.read(coldBase + uint64(arg)*cache.LineSize)
	case 5: // write a burst of never-used lines, past pages and growths
		for i := 0; i <= int(arg%64); i++ {
			s.write(freshBase + s.fresh*cache.LineSize)
			s.fresh++
		}
	case 6: // read a burst line
		if s.fresh > 0 {
			s.read(freshBase + s.writes*(uint64(arg)+1)%s.fresh*cache.LineSize)
		}
	}
}

// checkAll reads every line the oracle holds back, and the count.
func (s *storeRun) checkAll() {
	s.t.Helper()
	for la := range s.oracle {
		s.read(la)
	}
	if got := s.m.WrittenLines(); got != len(s.oracle) {
		s.t.Fatalf("%d lines stored, the oracle holds %d", got, len(s.oracle))
	}
}

// TestLineStoreMatchesMap runs random operations against Memory's line
// store and a map, across many pages and index doublings.
func TestLineStoreMatchesMap(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		s := newStoreRun(t)
		r := rng.New(seed)
		for i := 0; i < 6000; i++ {
			s.step(byte(r.Uint64()), byte(r.Uint64()))
		}
		s.checkAll()
		ls := &s.m.written
		if len(ls.pages) < 8 || len(ls.index) < 1<<14 {
			t.Fatalf("seed %d: %d pages, %d index slots: the run crossed too few page and growth boundaries",
				seed, len(ls.pages), len(ls.index))
		}
	}
}

// FuzzLineStore runs the operations its input spells, two bytes each,
// against Memory's line store and a map.
func FuzzLineStore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 1, 3, 1, 3, 9, 1, 1, 4, 7, 0, 1, 1, 1})
	f.Add(bytes.Repeat([]byte{5, 63, 2, 3, 6, 9, 3, 12}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := newStoreRun(t)
		for i := 0; i+1 < len(ops); i += 2 {
			s.step(ops[i], ops[i+1])
		}
		s.checkAll()
	})
}
