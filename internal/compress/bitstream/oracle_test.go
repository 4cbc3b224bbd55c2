package bitstream

import (
	"bytes"
	"testing"

	"morc/internal/rng"
)

// writeBitsLoop is the bit-at-a-time WriteBits that the byte-wise one
// replaced, kept as its differential oracle.
func writeBitsLoop(w *Writer, v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		bit := (v >> uint(i)) & 1
		byteIdx := w.nbit >> 3
		if byteIdx == len(w.buf) {
			w.buf = append(w.buf, 0)
		}
		if bit != 0 {
			w.buf[byteIdx] |= 1 << uint(7-(w.nbit&7))
		}
		w.nbit++
	}
}

// sameOutput fails unless w and the oracle writer hold the same bits.
func sameOutput(t testing.TB, w, oracle *Writer) {
	t.Helper()
	if w.Len() != oracle.Len() || !bytes.Equal(w.Bytes(), oracle.Bytes()) {
		t.Fatalf("WriteBits wrote %d bits %x, the bit loop %d bits %x", w.Len(), w.Bytes(), oracle.Len(), oracle.Bytes())
	}
}

// TestWriteBitsMatchesBitLoop writes random runs of (v, n) through
// WriteBits and the bit loop it replaced: widths 0 through 64 at every
// alignment, values with bits set above the width, and writers reused
// after Reset over stale buffer bytes.
func TestWriteBitsMatchesBitLoop(t *testing.T) {
	r := rng.New(1)
	w, oracle := NewWriter(), NewWriter()
	for run := 0; run < 300; run++ {
		w.Reset()
		oracle.Reset()
		for op := r.Intn(48); op >= 0; op-- {
			n := r.Intn(65)
			switch r.Intn(6) {
			case 0:
				n = 0
			case 1:
				n = 64
			}
			v := r.Uint64()
			if r.Bool(0.2) {
				v = ^uint64(0)
			}
			w.WriteBits(v, n)
			writeBitsLoop(oracle, v, n)
			sameOutput(t, w, oracle)
		}
	}
}
