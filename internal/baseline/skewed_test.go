package baseline

import (
	"bytes"
	"testing"
	"testing/quick"

	"morc/internal/cache"
	"morc/internal/rng"
)

func TestSkewedFillRead(t *testing.T) {
	s := NewSkewed(8 * 1024)
	r := rng.New(1)
	d := randomLine(r)
	s.Fill(0x1000, d)
	res := s.Read(0x1000)
	if !res.Hit || !bytes.Equal(res.Data, d) {
		t.Fatal("read after fill")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedPacksCompressibleLines(t *testing.T) {
	s := NewSkewed(8 * 1024)
	for i := 0; i < 4000; i++ {
		s.Fill(uint64(i)*cache.LineSize, zeroLine())
	}
	// Zero lines land in the 8-byte class: two ways pack 8 each, the
	// remaining six ways idle => ratio can exceed 1 but is bounded by
	// the group split (2/8 ways * 8x + nothing else ≈ 2x ceiling here).
	if r := s.Ratio(); r < 1.2 || r > 2.6 {
		t.Fatalf("skewed zero-line ratio %.2f out of expected band", r)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedIncompressibleNearOne(t *testing.T) {
	s := NewSkewed(8 * 1024)
	r := rng.New(2)
	for i := 0; i < 2000; i++ {
		s.Fill(uint64(i)*cache.LineSize, randomLine(r))
	}
	// Incompressible lines only use the 64B class (2 of 8 ways).
	if ratio := s.Ratio(); ratio > 0.5 {
		t.Fatalf("incompressible ratio %.2f above the 64B-class share", ratio)
	}
}

// TestSkewedCountsExpansions: a line C-Pack cannot shrink below 64
// bytes is stored uncompressed, and Skewed counts it as Decoupled, its
// C-Pack sibling, does.
func TestSkewedCountsExpansions(t *testing.T) {
	const n = 4000
	s := NewSkewed(64 * 1024)
	d := New(DefaultConfig(Decoupled, 64*1024))
	r := rng.New(5)
	for i := 0; i < n; i++ {
		line := randomLine(r)
		s.Fill(uint64(i)*cache.LineSize, line)
		d.Fill(uint64(i)*cache.LineSize, line)
	}
	got, want := s.BaselineStats().Expansions, d.BaselineStats().Expansions
	if got != want || want != n {
		t.Fatalf("Skewed counted %d expansions, Decoupled %d, over %d incompressible lines", got, want, n)
	}
	if p := s.Probes()["expansions"]; p != n {
		t.Fatalf("Skewed's expansions probe reads %v, want %d", p, n)
	}
}

func TestSkewedSizeClassMigration(t *testing.T) {
	s := NewSkewed(8 * 1024)
	r := rng.New(3)
	s.Fill(0x40, zeroLine())         // 8B class
	s.WriteBack(0x40, randomLine(r)) // must migrate to the 64B class
	res := s.Read(0x40)
	if !res.Hit {
		t.Fatal("line lost in migration")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedDirtyEviction(t *testing.T) {
	s := NewSkewed(1024) // tiny: 2 sets
	r := rng.New(4)
	var wbs []cache.Writeback
	for i := 0; i < 500; i++ {
		wbs = append(wbs, s.WriteBack(uint64(i)*cache.LineSize, randomLine(r))...)
	}
	if len(wbs) == 0 {
		t.Fatal("no dirty evictions")
	}
}

func TestSkewedGoldenModel(t *testing.T) {
	f := func(seed uint64) bool {
		s := NewSkewed(4 * 1024)
		r := rng.New(seed)
		latest := map[uint64][]byte{}
		for i := 0; i < 400; i++ {
			addr := uint64(r.Intn(100)) * cache.LineSize
			switch r.Intn(3) {
			case 0:
				res := s.Read(addr)
				if res.Hit && !bytes.Equal(res.Data, latest[addr]) {
					return false
				}
			case 1:
				d := narrowLine(r)
				s.Fill(addr, d)
				latest[addr] = d
			default:
				d := randomLine(r)
				s.WriteBack(addr, d)
				latest[addr] = d
			}
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad capacity accepted")
		}
	}()
	NewSkewed(1000)
}
