package tagdelta

import (
	"fmt"
	"testing"
	"testing/quick"

	"morc/internal/rng"
)

// checkStream appends tags to a fresh Stream, checking each TrialBits
// against what Append reports and the stream's growth, then encodes the
// tags twice, all valid and with validity valid: each encoding must be
// as long as the Stream sized it and decode to the tags with the
// validity it was given, so invalidation moves neither the length nor
// any tag.
func checkStream(cfg Config, tags []uint64, valid []bool) error {
	s := NewStream(cfg)
	for i, tag := range tags {
		trial, before := s.TrialBits(tag), s.Bits()
		grew := s.Append(tag)
		if trial != grew || s.Bits()-before != grew {
			return fmt.Errorf("tag %d: TrialBits %d, Append reported %d, the stream grew %d", i, trial, grew, s.Bits()-before)
		}
	}
	if s.Count() != len(tags) {
		return fmt.Errorf("Count %d, appended %d", s.Count(), len(tags))
	}
	for _, v := range [][]bool{allValid(len(tags)), valid} {
		data, nbits := Encode(cfg, tags, v)
		if nbits != s.Bits() {
			return fmt.Errorf("Encode wrote %d bits, the Stream sized %d", nbits, s.Bits())
		}
		got, gotValid, err := Decode(cfg, data, nbits, len(tags))
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		for i := range tags {
			if got[i] != tags[i] || gotValid[i] != v[i] {
				return fmt.Errorf("tag %d: decoded %#x valid %v, want %#x valid %v", i, got[i], gotValid[i], tags[i], v[i])
			}
		}
	}
	return nil
}

func allValid(n int) []bool {
	v := make([]bool, n)
	for i := range v {
		v[i] = true
	}
	return v
}

func roundTrip(t *testing.T, cfg Config, tags []uint64) {
	t.Helper()
	if err := checkStream(cfg, tags, allValid(len(tags))); err != nil {
		t.Fatal(err)
	}
}

func TestDistCodeTable(t *testing.T) {
	// Spot-check Table 2 rows.
	cases := []struct {
		dist       uint64
		code, prec int
	}{
		{1, 0, 0}, {2, 1, 0}, {3, 2, 0}, {4, 3, 0},
		{5, 4, 1}, {6, 4, 1}, {7, 5, 1}, {8, 5, 1},
		{9, 6, 2}, {12, 6, 2}, {13, 7, 2}, {16, 7, 2},
		{8193, 26, 12}, {16384, 27, 12},
		{16385, 28, 13}, {32768, 29, 13},
	}
	for _, c := range cases {
		code, prec, extra := distCode(c.dist)
		if code != c.code || prec != c.prec {
			t.Fatalf("distCode(%d) = (%d,%d), want (%d,%d)", c.dist, code, prec, c.code, c.prec)
		}
		if back := distFromCode(code, extra); back != c.dist {
			t.Fatalf("distFromCode(%d,%d) = %d, want %d", code, extra, back, c.dist)
		}
	}
}

func TestDistCodeInverseExhaustive(t *testing.T) {
	for d := uint64(1); d <= maxDistance; d++ {
		code, prec, extra := distCode(d)
		if code < 0 || code >= newBaseCode {
			t.Fatalf("dist %d: code %d out of range", d, code)
		}
		if extra >= 1<<uint(prec) && prec > 0 {
			t.Fatalf("dist %d: extra %d overflows %d bits", d, extra, prec)
		}
		if prec == 0 && extra != 0 {
			t.Fatalf("dist %d: extra %d with 0 precision", d, extra)
		}
		if back := distFromCode(code, extra); back != d {
			t.Fatalf("inverse failed at %d: got %d", d, back)
		}
	}
}

func TestSequentialTagsCompressWell(t *testing.T) {
	cfg := Config{MultiBase: false}
	s := NewStream(cfg)
	first := s.Append(1000)
	if first != 1+5+42 {
		t.Fatalf("first tag = %d bits, want 48 (new base)", first)
	}
	next := s.Append(1001)
	// validity + code(5) + sign(1) + 0 precision = 7 bits.
	if next != 7 {
		t.Fatalf("sequential tag = %d bits, want 7", next)
	}
}

func TestNegativeDelta(t *testing.T) {
	roundTrip(t, Config{}, []uint64{5000, 4990, 4980})
}

func TestZeroDeltaUsesNewBase(t *testing.T) {
	cfg := Config{}
	s := NewStream(cfg)
	s.Append(77)
	bits := s.Append(77) // identical tag: distance 0 must escape
	if bits != 1+5+42 {
		t.Fatalf("repeat tag = %d bits, want new-base escape", bits)
	}
	roundTrip(t, cfg, []uint64{77, 77, 78})
}

func TestFarJumpUsesNewBase(t *testing.T) {
	cfg := Config{}
	s := NewStream(cfg)
	s.Append(0)
	bits := s.Append(maxDistance + 1) // > 2MB away
	if bits != 1+5+42 {
		t.Fatalf("far tag = %d bits, want new-base escape", bits)
	}
	roundTrip(t, cfg, []uint64{0, maxDistance + 1, maxDistance + 2})
}

func TestMaxDistanceDelta(t *testing.T) {
	roundTrip(t, Config{}, []uint64{100000, 100000 + maxDistance})
}

func TestMultiBaseInterleavedStreams(t *testing.T) {
	// Two interleaved sequential streams: multi-base should encode all
	// post-warmup tags as small deltas; single base would escape on every
	// other tag.
	tags := []uint64{1000, 900000, 1001, 900001, 1002, 900002, 1003, 900003}
	single := NewStream(Config{MultiBase: false})
	multi := NewStream(Config{MultiBase: true})
	for _, tg := range tags {
		single.Append(tg)
		multi.Append(tg)
	}
	if multi.Bits() >= single.Bits() {
		t.Fatalf("multi-base %d bits not better than single %d bits", multi.Bits(), single.Bits())
	}
	roundTrip(t, Config{MultiBase: true}, tags)
}

func TestTrialBitsMatchesAppend(t *testing.T) {
	r := rng.New(1)
	cfg := DefaultConfig()
	s := NewStream(cfg)
	base := uint64(1 << 20)
	for i := 0; i < 200; i++ {
		var tag uint64
		switch r.Intn(3) {
		case 0:
			tag = base + uint64(r.Intn(100))
		case 1:
			tag = base + uint64(r.Intn(100000))
		default:
			tag = r.Uint64() & ((1 << 42) - 1)
		}
		want := s.TrialBits(tag)
		got := s.Append(tag)
		if got != want {
			t.Fatalf("tag %d: TrialBits %d != Append %d", i, want, got)
		}
	}
}

func TestInvalidate(t *testing.T) {
	tags := []uint64{10, 11, 12, 13}
	if err := checkStream(DefaultConfig(), tags, []bool{true, false, true, false}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Encode of 2 tags with 1 validity bit did not panic")
		}
	}()
	Encode(DefaultConfig(), []uint64{1, 2}, []bool{true})
}

func TestOversizedTagPanics(t *testing.T) {
	s := NewStream(DefaultConfig())
	s.Append(1<<42 - 1) // the widest 42-bit tag fits
	defer func() {
		if recover() == nil {
			t.Fatal("a 43-bit tag did not panic")
		}
	}()
	s.Append(1 << 42)
}

func TestResetMatchesFreshStream(t *testing.T) {
	cfg := DefaultConfig()
	s := NewStream(cfg)
	s.Append(500)
	s.Append(9000)
	s.Reset()
	if s.Bits() != 0 || s.Count() != 0 {
		t.Fatalf("Reset left %d bits, %d tags", s.Bits(), s.Count())
	}
	// No base may survive the reset: the first tag must escape again,
	// exactly as in a fresh stream, and Encode, which starts fresh,
	// must agree with the reset stream's size.
	fresh := NewStream(cfg)
	tags := []uint64{501, 502, 9001}
	for _, tag := range tags {
		if got, want := s.TrialBits(tag), fresh.TrialBits(tag); got != want {
			t.Fatalf("tag %d: reset stream trial %d bits, fresh stream %d", tag, got, want)
		}
		if got, want := s.Append(tag), fresh.Append(tag); got != want {
			t.Fatalf("tag %d: reset stream appended %d bits, fresh stream %d", tag, got, want)
		}
	}
	if _, nbits := Encode(cfg, tags, []bool{true, false, true}); nbits != s.Bits() {
		t.Fatalf("reset stream sized %d bits, Encode wrote %d", s.Bits(), nbits)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, multiBase bool, n uint8) bool {
		r := rng.New(seed)
		cfg := Config{MultiBase: multiBase}
		count := int(n%50) + 1
		tags := make([]uint64, count)
		valid := make([]bool, count)
		cur := r.Uint64() & ((1 << 42) - 1)
		for i := range tags {
			switch r.Intn(4) {
			case 0: // sequential
				cur++
			case 1: // small jump either way
				cur += uint64(r.Intn(64))
				if r.Bool(0.5) && cur > 1000 {
					cur -= uint64(r.Intn(1000))
				}
			case 2: // repeat
			default: // far jump
				cur = r.Uint64() & ((1 << 42) - 1)
			}
			tags[i] = cur
			valid[i] = r.Bool(0.7)
		}
		if err := checkStream(cfg, tags, valid); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAverageBitsPerTagTemporal(t *testing.T) {
	// The headline property: temporally clustered fills compress to a few
	// bits per tag, far below the 42-bit uncompressed tag.
	r := rng.New(2)
	s := NewStream(DefaultConfig())
	cur := uint64(1 << 30)
	for i := 0; i < 1000; i++ {
		cur += uint64(r.Intn(8) + 1) // streaming access pattern
		s.Append(cur)
	}
	avg := float64(s.Bits()) / 1000
	if avg > 12 {
		t.Fatalf("average %.1f bits/tag for sequential fills, want < 12", avg)
	}
}
