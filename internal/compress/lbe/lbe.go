// Package lbe implements Large-Block Encoding, the MORC paper's data
// compression algorithm (§3.2.5, Table 3).
//
// LBE is a streaming, dictionary-based codec that reads input in 256-bit
// (32-byte) chunks and dynamically chooses the match granularity: 32, 64,
// 128 or 256 bits. Each granularity has its own logical dictionary; only
// the 32-bit dictionary holds data, with larger entries acting as binary
// trees of pointers into it (a hardware detail — this software model
// stores the bytes directly, which produces the identical bitstream).
//
// Symbol prefixes (Table 3 of the paper):
//
//	u32  00      + 32b literal      m64   1100  + ptr
//	m32  01      + ptr              z64   1101
//	u16  100     + 16b literal      m128  11100 + ptr
//	z32  1010                       z128  11101
//	u8   1011    + 8b literal       m256  11110 + ptr
//	                                z256  11111
//
// Literals (u8/u16/u32) create a new 32-bit dictionary entry. After each
// 256-bit chunk, dictionary entries are allocated for every 64/128/256-bit
// sub-chunk that failed to compress as a single symbol, provided every
// constituent 32-bit word is representable (zero or present in the 32-bit
// dictionary) and the granularity's dictionary is not yet full.
// Dictionaries freeze when full, exactly like C-Pack's.
//
// The Encoder supports trial appends: a trial (TrialBits, or Append for
// a committable Pending) only counts bits. It adds its dictionary
// entries in place and rolls them back when it ends, so it allocates
// nothing and leaves the encoder unchanged; committing encodes the
// block again, for real.
//
// MORC does not commit that way. It compresses an inserted line into
// every active log and keeps the smallest (§3.2.3): a Group holds the
// active logs' dictionaries, sizes the line in all of them in one walk,
// and lets the winner keep its trial, with its bits and symbol counts,
// so the line is encoded once and no log writes a stream. A log's
// stream depends only on its own lines, so an Encoder fed them rebuilds
// it whenever it is needed for decoding or checking.
package lbe

import (
	"fmt"

	"morc/internal/compress/bitstream"
)

// Symbol identifies an LBE encoding symbol, for the Figure 7 usage study.
type Symbol int

// Symbol values in Table 3 order.
const (
	SymU8 Symbol = iota
	SymU16
	SymU32
	SymM32
	SymZ32
	SymM64
	SymZ64
	SymM128
	SymZ128
	SymM256
	SymZ256
	numSymbols
)

// String returns the paper's name for the symbol.
func (s Symbol) String() string {
	switch s {
	case SymU8:
		return "u8"
	case SymU16:
		return "u16"
	case SymU32:
		return "u32"
	case SymM32:
		return "m32"
	case SymZ32:
		return "z32"
	case SymM64:
		return "m64"
	case SymZ64:
		return "z64"
	case SymM128:
		return "m128"
	case SymZ128:
		return "z128"
	case SymM256:
		return "m256"
	case SymZ256:
		return "z256"
	}
	return fmt.Sprintf("Symbol(%d)", int(s))
}

// DataBytes returns how many bytes of output the symbol represents.
func (s Symbol) DataBytes() int {
	switch s {
	case SymU8, SymU16, SymU32, SymM32, SymZ32:
		return 4
	case SymM64, SymZ64:
		return 8
	case SymM128, SymZ128:
		return 16
	case SymM256, SymZ256:
		return 32
	}
	return 0
}

// IsZero reports whether the symbol encodes an all-zero block.
func (s Symbol) IsZero() bool {
	switch s {
	case SymZ32, SymZ64, SymZ128, SymZ256:
		return true
	}
	return false
}

// SymbolStats counts symbol usage, indexed by Symbol.
type SymbolStats [numSymbols]uint64

// Add accumulates other into s.
func (s *SymbolStats) Add(other SymbolStats) {
	for i := range s {
		s[i] += other[i]
	}
}

// Config sets the per-granularity dictionary entry counts. The paper sizes
// the LBE dictionary at 512 bytes of leaf (32-bit) storage.
type Config struct {
	Dict32  int // 32-bit entries (hold data)
	Dict64  int // 64-bit tree entries
	Dict128 int
	Dict256 int
}

// DefaultConfig is the configuration evaluated in the paper: a 512-byte
// 32-bit dictionary (128 entries) with tree dictionaries scaled so that
// every granularity can cover the same span.
func DefaultConfig() Config {
	return Config{Dict32: 128, Dict64: 64, Dict128: 32, Dict256: 16}
}

// Validate reports whether every dictionary has at least one entry.
func (c Config) Validate() error {
	if c.Dict32 < 1 || c.Dict64 < 1 || c.Dict128 < 1 || c.Dict256 < 1 {
		return fmt.Errorf("lbe: all dictionary sizes must be >= 1: %+v", c)
	}
	return nil
}

// ptrWidths returns the match-pointer width of each level's dictionary.
func (c Config) ptrWidths() [4]int {
	return [4]int{ptrBits(c.Dict32), ptrBits(c.Dict64), ptrBits(c.Dict128), ptrBits(c.Dict256)}
}

// ptrBits returns the pointer width for a dictionary with n entries.
func ptrBits(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// Encoder compresses a stream of 32-byte-multiple blocks, maintaining
// dictionary state across appends.
type Encoder struct {
	ptr   [4]int // match-pointer width per level
	w     bitstream.Writer
	dicts dicts
	stats SymbolStats
	inLen int // uncompressed bytes appended

	// State of the encode in progress.
	commit bool // write bits and count symbols, and keep new entries
	bits   int  // bits the encode has produced so far
	c      chunk
	cs     chunkState
}

// NewEncoder returns an empty encoder with the given configuration.
func NewEncoder(cfg Config) *Encoder {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Encoder{ptr: cfg.ptrWidths(), dicts: newDicts(cfg)}
}

// Reset empties the encoder for reuse with the same configuration,
// keeping its allocated storage. A Pending from before the reset must
// not be committed after it.
func (e *Encoder) Reset() {
	e.w.Reset()
	e.dicts.reset()
	e.stats = SymbolStats{}
	e.inLen = 0
}

// Bits returns the compressed stream length in bits.
func (e *Encoder) Bits() int { return e.w.Len() }

// Bytes returns the compressed stream (padded to a byte boundary).
func (e *Encoder) Bytes() []byte { return e.w.Bytes() }

// InputBytes returns the total uncompressed bytes appended so far.
func (e *Encoder) InputBytes() int { return e.inLen }

// Stats returns a copy of the symbol usage counters.
func (e *Encoder) Stats() SymbolStats { return e.stats }

// Pending is a trial append that can be committed: the bits the block
// would occupy against the encoder state it was sized on. Commit encodes
// the block again, so the block must not change before Commit.
type Pending struct {
	enc      *Encoder
	startBit int
	bits     int
	block    []byte
	applied  bool
}

// Bits returns the number of compressed bits this append would add.
func (p *Pending) Bits() int { return p.bits }

// TrialBits returns the number of bits appending block (length a positive
// multiple of 32) would add. The encoder is left unchanged and nothing
// is allocated.
func (e *Encoder) TrialBits(block []byte) int { return e.encode(block, false) }

// Append trial-compresses block (length must be a positive multiple of 32)
// against the encoder's current state, returning a Pending that the caller
// commits with Commit or simply drops. The encoder state is unmodified
// until Commit.
func (e *Encoder) Append(block []byte) *Pending {
	return &Pending{enc: e, startBit: e.w.Len(), bits: e.TrialBits(block), block: block}
}

// Commit applies a pending append produced by this encoder. A Pending may
// be committed at most once, and only if the encoder has not advanced
// since the Append call.
func (e *Encoder) Commit(p *Pending) {
	if p.enc != e {
		panic("lbe: Commit of pending from another encoder")
	}
	if p.applied {
		panic("lbe: double Commit")
	}
	if p.startBit != e.w.Len() {
		panic("lbe: encoder advanced since Append; pending is stale")
	}
	if e.encode(p.block, true) != p.bits {
		panic("lbe: block changed between Append and Commit")
	}
	p.applied = true
}

// AppendCommit is the one-shot form used when no trial is needed. It
// returns the bits added and allocates only to grow the stream.
func (e *Encoder) AppendCommit(block []byte) int { return e.encode(block, true) }

// encode compresses block chunk by chunk against the current state and
// returns its size in bits. A commit writes the bits, counts the symbols
// and keeps the new dictionary entries; a trial only counts bits and
// truncates the dictionaries back to their lengths on entry, which
// removes exactly the entries it added because dictionaries are
// append-only.
func (e *Encoder) encode(block []byte, commit bool) int {
	if len(block) == 0 || len(block)%32 != 0 {
		panic(fmt.Sprintf("lbe: Append block of %d bytes (need positive multiple of 32)", len(block)))
	}
	saved := e.dicts.lens()
	e.commit, e.bits = commit, 0
	for off := 0; off < len(block); off += 32 {
		e.c = loadChunk(block[off:])
		e.cs = chunkState{}
		e.encodeRegion(lvl256, 0)
		// Post-chunk allocation (paper: "before compressing the next 256b
		// chunk, LBE allocates dictionary entries for any of the
		// 64/128/256b chunks that failed to compress"). A trial's last
		// chunk skips it: the truncate below would drop the entries
		// before anything read them.
		if commit || off+32 < len(block) {
			e.dicts.allocFailed(&e.c, &e.cs)
		}
	}
	if commit {
		e.inLen += len(block)
	} else {
		e.dicts.truncate(saved)
	}
	return e.bits
}

func (e *Encoder) emit(v uint64, n int) {
	e.bits += n
	if e.commit {
		e.w.WriteBits(v, n)
	}
}

func (e *Encoder) emitSym(s Symbol) {
	c := symCode[s]
	e.emit(uint64(c.v), c.n)
	if e.commit {
		e.stats[s]++
	}
}

// symbol codes from Table 3: value and bit-width of the prefix.
var symCode = [numSymbols]struct{ v, n int }{
	SymU8:   {0b1011, 4},
	SymU16:  {0b100, 3},
	SymU32:  {0b00, 2},
	SymM32:  {0b01, 2},
	SymZ32:  {0b1010, 4},
	SymM64:  {0b1100, 4},
	SymZ64:  {0b1101, 4},
	SymM128: {0b11100, 5},
	SymZ128: {0b11101, 5},
	SymM256: {0b11110, 5},
	SymZ256: {0b11111, 5},
}

var (
	zSym = [4]Symbol{SymZ32, SymZ64, SymZ128, SymZ256}
	mSym = [4]Symbol{SymM32, SymM64, SymM128, SymM256}
)

// encodeRegion compresses region i of level lvl of the current chunk,
// recording the 64/128/256-bit regions that fail to compress as one
// symbol, and the words known to the 32-bit dictionary, for post-chunk
// dictionary allocation.
func (e *Encoder) encodeRegion(lvl, i int) {
	if e.c.isZero(lvl, i) {
		e.emitSym(zSym[lvl])
		e.cs.known |= regionWords(lvl, i)
		return
	}
	if lvl > lvl32 {
		if idx, ok := e.dicts.lookup(&e.c, lvl, i); ok {
			e.emitSym(mSym[lvl])
			e.emit(uint64(idx), e.ptr[lvl])
			e.cs.known |= regionWords(lvl, i)
			return
		}
		e.cs.failed[lvl] |= 1 << i
		e.encodeRegion(lvl-1, 2*i)
		e.encodeRegion(lvl-1, 2*i+1)
		return
	}
	w := e.c.word(i)
	idx, at, ok := e.dicts.d32.find(w, hash32(w))
	if ok {
		e.emitSym(SymM32)
		e.emit(uint64(idx), e.ptr[lvl32])
		e.cs.known |= 1 << i
		return
	}
	// 32-bit literal with upper-zero truncation (u8/u16/u32). Words are
	// interpreted little-endian, matching the x86 memory images the paper
	// traces: a small integer has zero bytes at the high addresses.
	switch {
	case w < 1<<8:
		e.emitSym(SymU8)
		e.emit(uint64(w), 8)
	case w < 1<<16:
		e.emitSym(SymU16)
		e.emit(uint64(w), 16)
	default:
		e.emitSym(SymU32)
		e.emit(uint64(w), 32)
	}
	if e.dicts.d32.insertAt(w, at) {
		e.cs.known |= 1 << i
	}
}
