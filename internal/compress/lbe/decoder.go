package lbe

import (
	"fmt"

	"morc/internal/compress/bitstream"
)

// Decoder decompresses an LBE stream produced by an Encoder with the same
// Config. It mirrors the encoder's dictionary state exactly: literals are
// inserted into the 32-bit dictionary as they are decoded and failed large
// blocks are allocated after each chunk, so decoding is possible from the
// start of the stream only — the property that gives MORC its variable,
// position-dependent decompression latency (§2.2).
type Decoder struct {
	ptr   [4]int // match-pointer width per level
	r     *bitstream.Reader
	dicts dicts
	out   int // total bytes decoded
}

// NewDecoder returns a decoder over the first nbits of data (nbits < 0
// means the whole slice).
func NewDecoder(cfg Config, data []byte, nbits int) *Decoder {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Decoder{ptr: cfg.ptrWidths(), r: bitstream.NewReader(data, nbits), dicts: newDicts(cfg)}
}

// OutputBytes returns the number of uncompressed bytes produced so far.
// Consumers convert this to decompression latency at 16 bytes per cycle.
func (d *Decoder) OutputBytes() int { return d.out }

// BitPos returns the current position in the compressed stream.
func (d *Decoder) BitPos() int { return d.r.Pos() }

// Next decodes the next n uncompressed bytes (n must be a positive
// multiple of 32).
func (d *Decoder) Next(n int) ([]byte, error) {
	if n <= 0 || n%32 != 0 {
		return nil, fmt.Errorf("lbe: Next(%d) must be a positive multiple of 32", n)
	}
	out := make([]byte, n)
	for off := 0; off < n; off += 32 {
		var c chunk // regions decoded as zero symbols stay zero
		var cs chunkState
		if err := d.decodeRegion(&c, lvl256, 0, &cs); err != nil {
			return nil, err
		}
		// Mirror the encoder's post-chunk allocation.
		d.dicts.allocFailed(&c, &cs)
		c.store(out[off:])
	}
	d.out += n
	return out, nil
}

// readSymbol decodes one prefix code from Table 3.
func (d *Decoder) readSymbol() (Symbol, error) {
	b1, err := d.r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if b1 == 0 {
		b2, err := d.r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		if b2 == 0 {
			return SymU32, nil // 00
		}
		return SymM32, nil // 01
	}
	b2, err := d.r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if b2 == 0 {
		b3, err := d.r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		if b3 == 0 {
			return SymU16, nil // 100
		}
		b4, err := d.r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		if b4 == 0 {
			return SymZ32, nil // 1010
		}
		return SymU8, nil // 1011
	}
	b3, err := d.r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if b3 == 0 {
		b4, err := d.r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		if b4 == 0 {
			return SymM64, nil // 1100
		}
		return SymZ64, nil // 1101
	}
	b4, err := d.r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	b5, err := d.r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	switch {
	case b4 == 0 && b5 == 0:
		return SymM128, nil // 11100
	case b4 == 0 && b5 == 1:
		return SymZ128, nil // 11101
	case b4 == 1 && b5 == 0:
		return SymM256, nil // 11110
	default:
		return SymZ256, nil // 11111
	}
}

// symLevel returns the granularity level a symbol operates at.
func symLevel(s Symbol) int {
	switch s {
	case SymU8, SymU16, SymU32, SymM32, SymZ32:
		return lvl32
	case SymM64, SymZ64:
		return lvl64
	case SymM128, SymZ128:
		return lvl128
	default:
		return lvl256
	}
}

func (d *Decoder) decodeRegion(c *chunk, lvl, i int, cs *chunkState) error {
	sym, err := d.readSymbol()
	if err != nil {
		return err
	}
	return d.decodeRegionWithSymbol(c, lvl, i, sym, cs)
}

// decodeRegionWithSymbol decodes region i of level lvl whose first
// symbol has already been consumed from the stream. A symbol below the
// region's level means the region failed at this granularity and the
// symbol belongs to its first half. It records the chunk state the
// encoder did: failed regions and known words.
func (d *Decoder) decodeRegionWithSymbol(c *chunk, lvl, i int, sym Symbol, cs *chunkState) error {
	sl := symLevel(sym)
	if sl > lvl {
		return fmt.Errorf("lbe: symbol %v at level %d region (corrupt stream)", sym, lvl)
	}
	if sl < lvl {
		cs.failed[lvl] |= 1 << i
		if err := d.decodeRegionWithSymbol(c, lvl-1, 2*i, sym, cs); err != nil {
			return err
		}
		return d.decodeRegion(c, lvl-1, 2*i+1, cs)
	}
	return d.applySymbol(c, lvl, i, sym, cs)
}

// applySymbol materializes a symbol whose level matches the region.
func (d *Decoder) applySymbol(c *chunk, lvl, i int, sym Symbol, cs *chunkState) error {
	litBits := 0
	switch sym {
	case SymZ32, SymZ64, SymZ128, SymZ256:
		cs.known |= regionWords(lvl, i)
		return nil
	case SymM32, SymM64, SymM128, SymM256:
		idx, err := d.r.ReadBits(d.ptr[lvl])
		if err != nil {
			return err
		}
		if !d.dicts.load(c, lvl, i, int(idx)) {
			return fmt.Errorf("lbe: match pointer %d beyond dictionary of %d (corrupt stream)", idx, d.dicts.lens()[lvl])
		}
		cs.known |= regionWords(lvl, i)
		return nil
	case SymU8:
		litBits = 8
	case SymU16:
		litBits = 16
	case SymU32:
		litBits = 32
	default:
		return fmt.Errorf("lbe: unhandled symbol %v", sym)
	}
	v, err := d.r.ReadBits(litBits)
	if err != nil {
		return err
	}
	w := uint32(v)
	c.setWord(i, w)
	// A stream the Encoder wrote never repeats a literal the dictionary
	// holds; a corrupt one may, and the word is then known all the same.
	if _, at, ok := d.dicts.d32.find(w, hash32(w)); ok || d.dicts.d32.insertAt(w, at) {
		cs.known |= 1 << i
	}
	return nil
}
