// Package bitstream implements MSB-first bit-level writers and readers.
//
// Every compression codec in this repository (LBE, C-Pack, FPC, the SC2
// Huffman coder, and the base-delta tag compressor) produces a real
// bitstream through this package, so compressed sizes are bit-exact
// rather than estimated.
package bitstream

import "fmt"

// Writer accumulates bits MSB-first into a byte slice.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// NewWriter returns an empty bit writer.
func NewWriter() *Writer { return &Writer{} }

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64]. It fills the last byte's free bits, then whole
// bytes, so it takes at most nine steps.
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits n=%d", n))
	}
	for n > 0 {
		used := w.nbit & 7
		if used == 0 {
			w.buf = append(w.buf, 0)
		}
		take := min(8-used, n)
		n -= take
		// The next take bits of v sit at [n, n+take); the mask drops the
		// bits above them, including any set above the requested width.
		bits := byte(v>>uint(n)) & (1<<uint(take) - 1)
		w.buf[len(w.buf)-1] |= bits << uint(8-used-take)
		w.nbit += take
	}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// Len returns the number of bits written.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the backing buffer (final partial byte zero-padded).
// The caller must not modify the result while continuing to write.
func (w *Writer) Bytes() []byte { return w.buf }

// ByteLen returns the number of bytes needed to hold the written bits.
func (w *Writer) ByteLen() int { return (w.nbit + 7) / 8 }

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf  []byte
	pos  int // bit position
	nbit int // total readable bits
}

// NewReader returns a reader over buf limited to nbits bits. If nbits is
// negative the full byte length is used.
func NewReader(buf []byte, nbits int) *Reader {
	if nbits < 0 {
		nbits = len(buf) * 8
	}
	if nbits > len(buf)*8 {
		panic("bitstream: nbits exceeds buffer")
	}
	return &Reader{buf: buf, nbit: nbits}
}

// ReadBits reads the next n bits as an unsigned value (MSB-first).
// It returns an error if the stream is exhausted.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitstream: ReadBits n=%d", n))
	}
	if r.pos+n > r.nbit {
		return 0, fmt.Errorf("bitstream: read past end (pos %d + %d > %d)", r.pos, n, r.nbit)
	}
	var v uint64
	for i := 0; i < n; i++ {
		byteIdx := r.pos >> 3
		bit := (r.buf[byteIdx] >> uint(7-(r.pos&7))) & 1
		v = v<<1 | uint64(bit)
		r.pos++
	}
	return v, nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (bool, error) {
	v, err := r.ReadBits(1)
	return v != 0, err
}

// Pos returns the current bit position.
func (r *Reader) Pos() int { return r.pos }

// Remaining returns how many bits are left.
func (r *Reader) Remaining() int { return r.nbit - r.pos }
