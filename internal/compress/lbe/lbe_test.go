package lbe

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"morc/internal/rng"
)

// roundTrip compresses blocks (each a multiple of 32 bytes) with one
// encoder and checks the decoder reproduces them in order.
func roundTrip(t *testing.T, cfg Config, blocks [][]byte) {
	t.Helper()
	e := NewEncoder(cfg)
	for _, b := range blocks {
		e.AppendCommit(b)
	}
	d := NewDecoder(cfg, e.Bytes(), e.Bits())
	for i, b := range blocks {
		got, err := d.Next(len(b))
		if err != nil {
			t.Fatalf("block %d: decode error: %v", i, err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("block %d: round trip mismatch\n got %x\nwant %x", i, got, b)
		}
	}
}

func TestRoundTripZeros(t *testing.T) {
	roundTrip(t, DefaultConfig(), [][]byte{make([]byte, 64), make([]byte, 64)})
}

func TestRoundTripLiterals(t *testing.T) {
	b := make([]byte, 64)
	r := rng.New(1)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	roundTrip(t, DefaultConfig(), [][]byte{b})
}

func TestRoundTripRepeatedLine(t *testing.T) {
	b := make([]byte, 64)
	r := rng.New(2)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	// The second copy should compress to near nothing via m256 symbols.
	e := NewEncoder(DefaultConfig())
	first := e.AppendCommit(b)
	second := e.AppendCommit(b)
	if second >= first/4 {
		t.Fatalf("repeated line not inter-compressed: first=%d bits, second=%d bits", first, second)
	}
	d := NewDecoder(DefaultConfig(), e.Bytes(), e.Bits())
	for i := 0; i < 2; i++ {
		got, err := d.Next(64)
		if err != nil || !bytes.Equal(got, b) {
			t.Fatalf("copy %d mismatch (err=%v)", i, err)
		}
	}
}

func TestZeroCompressionRatio(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	bits := e.AppendCommit(make([]byte, 64))
	// 64 zero bytes = 2 chunks = 2 z256 symbols of 5 bits.
	if bits != 10 {
		t.Fatalf("zero line = %d bits, want 10", bits)
	}
}

func TestNarrowValues(t *testing.T) {
	// Line of small little-endian 32-bit integers: should use u8/u16.
	b := make([]byte, 64)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(i+1))
	}
	e := NewEncoder(DefaultConfig())
	e.AppendCommit(b)
	st := e.Stats()
	if st[SymU8] == 0 {
		t.Fatalf("no u8 symbols for narrow values: %+v", st)
	}
	if st[SymU32] != 0 {
		t.Fatalf("u32 used for narrow values: %+v", st)
	}
	roundTrip(t, DefaultConfig(), [][]byte{b})
}

func TestMatch32(t *testing.T) {
	b := make([]byte, 64)
	// Same non-zero word repeated: first occurrence literal, rest m32 or
	// promoted to larger matches after allocation.
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], 0xDEADBEEF)
	}
	e := NewEncoder(DefaultConfig())
	e.AppendCommit(b)
	st := e.Stats()
	if st[SymM32] == 0 {
		t.Fatalf("no m32 matches: %+v", st)
	}
	roundTrip(t, DefaultConfig(), [][]byte{b})
}

func TestLargeGranularityPromotion(t *testing.T) {
	r := rng.New(3)
	chunk := make([]byte, 32)
	for i := range chunk {
		chunk[i] = byte(r.Uint64())
	}
	line1 := append(append([]byte{}, chunk...), chunk...) // same 256b twice
	e := NewEncoder(DefaultConfig())
	e.AppendCommit(line1)
	st := e.Stats()
	// The second chunk must match at 256-bit granularity (allocated after
	// the first chunk failed).
	if st[SymM256] != 1 {
		t.Fatalf("m256 count = %d, want 1 (stats %+v)", st[SymM256], st)
	}
	roundTrip(t, DefaultConfig(), [][]byte{line1})
}

func TestTrialAppendDoesNotMutate(t *testing.T) {
	r := rng.New(4)
	b := make([]byte, 64)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	e := NewEncoder(DefaultConfig())
	before := e.Bits()
	p := e.Append(b)
	if e.Bits() != before {
		t.Fatal("Append mutated encoder bits")
	}
	if e.dicts.lens() != [4]int{} {
		t.Fatal("Append mutated dictionary")
	}
	// A second trial of the same data must produce the same size.
	p2 := e.Append(b)
	if p.Bits() != p2.Bits() {
		t.Fatalf("trial appends differ: %d vs %d", p.Bits(), p2.Bits())
	}
	e.Commit(p2)
	// After commit, the same line should compress far better.
	p3 := e.Append(b)
	if p3.Bits() >= p2.Bits()/2 {
		t.Fatalf("commit did not update dictionaries: %d then %d", p2.Bits(), p3.Bits())
	}
}

func TestCommitStalePanics(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	b := make([]byte, 64)
	p := e.Append(b)
	e.AppendCommit(b)
	defer func() {
		if recover() == nil {
			t.Fatal("stale commit did not panic")
		}
	}()
	e.Commit(p)
}

func TestCommitTwicePanics(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	p := e.Append(make([]byte, 64))
	e.Commit(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double commit did not panic")
		}
	}()
	e.Commit(p)
}

func TestCommitWrongEncoderPanics(t *testing.T) {
	e1 := NewEncoder(DefaultConfig())
	e2 := NewEncoder(DefaultConfig())
	p := e1.Append(make([]byte, 64))
	defer func() {
		if recover() == nil {
			t.Fatal("cross-encoder commit did not panic")
		}
	}()
	e2.Commit(p)
}

func TestAppendBadSizePanics(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	for _, n := range []int{0, 1, 31, 33, 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Append(%d bytes) did not panic", n)
				}
			}()
			e.Append(make([]byte, n))
		}()
	}
}

func TestResetMatchesFreshEncoder(t *testing.T) {
	r := rng.New(5)
	b1 := make([]byte, 64)
	b2 := make([]byte, 64)
	for i := range b1 {
		b1[i] = byte(r.Uint64())
		b2[i] = byte(r.Uint64())
	}
	e := NewEncoder(DefaultConfig())
	e.AppendCommit(b1)
	e.AppendCommit(b2)
	e.Reset()
	if e.Bits() != 0 || e.InputBytes() != 0 || e.Stats() != (SymbolStats{}) || e.dicts.lens() != [4]int{} {
		t.Fatalf("Reset left state: %d bits, %d input bytes, stats %v, dictionaries %v",
			e.Bits(), e.InputBytes(), e.Stats(), e.dicts.lens())
	}
	// The reset encoder must behave exactly like a fresh one: nothing of
	// b1 may still match.
	fresh := NewEncoder(DefaultConfig())
	for _, b := range [][]byte{b2, b1} {
		if got, want := e.AppendCommit(b), fresh.AppendCommit(b); got != want {
			t.Fatalf("reset encoder appended %d bits, fresh encoder %d", got, want)
		}
	}
	if !bytes.Equal(e.Bytes(), fresh.Bytes()) || e.Stats() != fresh.Stats() {
		t.Fatal("reset encoder's stream differs from a fresh encoder's")
	}
	d := NewDecoder(DefaultConfig(), e.Bytes(), e.Bits())
	for _, want := range [][]byte{b2, b1} {
		if got, err := d.Next(64); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reset encoder's stream does not round-trip: %v", err)
		}
	}
}

func TestDictionaryFreeze(t *testing.T) {
	// Tiny dictionary: after it fills, literals must still round-trip.
	cfg := Config{Dict32: 4, Dict64: 2, Dict128: 2, Dict256: 2}
	r := rng.New(6)
	var blocks [][]byte
	for n := 0; n < 8; n++ {
		b := make([]byte, 64)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		blocks = append(blocks, b)
	}
	roundTrip(t, cfg, blocks)
}

func TestMixedContentStream(t *testing.T) {
	r := rng.New(7)
	var blocks [][]byte
	pool := make([][]byte, 4)
	for i := range pool {
		pool[i] = make([]byte, 32)
		for j := range pool[i] {
			pool[i][j] = byte(r.Uint64())
		}
	}
	for n := 0; n < 50; n++ {
		b := make([]byte, 64)
		switch n % 4 {
		case 0: // zeros
		case 1: // pool chunks (inter-line duplication)
			copy(b[:32], pool[r.Intn(4)])
			copy(b[32:], pool[r.Intn(4)])
		case 2: // narrow values
			for i := 0; i < 16; i++ {
				binary.LittleEndian.PutUint32(b[i*4:], uint32(r.Intn(1000)))
			}
		default: // random
			for i := range b {
				b[i] = byte(r.Uint64())
			}
		}
		blocks = append(blocks, b)
	}
	roundTrip(t, DefaultConfig(), blocks)
}

func TestInterLineBeatsIntraLine(t *testing.T) {
	// Many lines drawn from a tiny pool of 32B chunks: a fresh encoder per
	// line (intra) cannot exploit cross-line duplication; a shared encoder
	// (inter) can. This is the paper's core Figure 2 insight.
	r := rng.New(8)
	pool := make([][]byte, 8)
	for i := range pool {
		pool[i] = make([]byte, 32)
		for j := range pool[i] {
			pool[i][j] = byte(r.Uint64())
		}
	}
	var lines [][]byte
	for n := 0; n < 64; n++ {
		b := make([]byte, 64)
		copy(b[:32], pool[r.Intn(8)])
		copy(b[32:], pool[r.Intn(8)])
		lines = append(lines, b)
	}
	inter := NewEncoder(DefaultConfig())
	interBits := 0
	for _, l := range lines {
		interBits += inter.AppendCommit(l)
	}
	intraBits := 0
	for _, l := range lines {
		e := NewEncoder(DefaultConfig())
		intraBits += e.AppendCommit(l)
	}
	if interBits >= intraBits/2 {
		t.Fatalf("inter-line %d bits not ≪ intra-line %d bits", interBits, intraBits)
	}
}

func TestStatsDataBytesConsistency(t *testing.T) {
	r := rng.New(9)
	b := make([]byte, 128)
	for i := range b {
		if r.Bool(0.5) {
			b[i] = byte(r.Uint64())
		}
	}
	e := NewEncoder(DefaultConfig())
	e.AppendCommit(b)
	st := e.Stats()
	total := 0
	for s := Symbol(0); s < numSymbols; s++ {
		total += int(st[s]) * s.DataBytes()
	}
	if total != 128 {
		t.Fatalf("symbol data bytes sum to %d, want 128", total)
	}
}

func TestInputBytesTracking(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	e.AppendCommit(make([]byte, 64))
	e.AppendCommit(make([]byte, 32))
	if e.InputBytes() != 96 {
		t.Fatalf("InputBytes = %d, want 96", e.InputBytes())
	}
}

func TestDecoderTruncatedStream(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	b := make([]byte, 64)
	r := rng.New(10)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	e.AppendCommit(b)
	d := NewDecoder(DefaultConfig(), e.Bytes(), e.Bits()/2)
	if _, err := d.Next(64); err == nil {
		t.Fatal("decoding truncated stream did not fail")
	}
}

func TestRoundTripProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed uint64, nLines uint8, zeroP, dupP uint8) bool {
		r := rng.New(seed)
		n := int(nLines%20) + 1
		pool := make([][]byte, 4)
		for i := range pool {
			pool[i] = make([]byte, 4)
			for j := range pool[i] {
				pool[i][j] = byte(r.Uint64())
			}
		}
		e := NewEncoder(cfg)
		var lines [][]byte
		for k := 0; k < n; k++ {
			b := make([]byte, 64)
			for w := 0; w < 16; w++ {
				switch {
				case r.Bool(float64(zeroP%100) / 100):
					// zero word
				case r.Bool(float64(dupP%100) / 100):
					copy(b[w*4:], pool[r.Intn(4)])
				default:
					binary.LittleEndian.PutUint32(b[w*4:], r.Uint32())
				}
			}
			lines = append(lines, b)
			e.AppendCommit(b)
		}
		d := NewDecoder(cfg, e.Bytes(), e.Bits())
		for _, want := range lines {
			got, err := d.Next(64)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedSizeMonotonic(t *testing.T) {
	// Appending can only grow the stream.
	r := rng.New(11)
	e := NewEncoder(DefaultConfig())
	prev := 0
	for i := 0; i < 30; i++ {
		b := make([]byte, 64)
		for j := range b {
			b[j] = byte(r.Uint64() & 0x0f)
		}
		e.AppendCommit(b)
		if e.Bits() < prev {
			t.Fatalf("stream shrank: %d -> %d", prev, e.Bits())
		}
		prev = e.Bits()
	}
}
