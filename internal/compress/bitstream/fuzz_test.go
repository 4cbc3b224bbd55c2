package bitstream

import (
	"encoding/binary"
	"testing"
)

// FuzzRoundTrip interprets the fuzz data as a sequence of (width,
// value) write operations, writes them MSB-first, and asserts the
// stream is bit for bit what the bit-at-a-time writer it replaced
// produces, the reader returns every value masked to its width, bit
// positions and lengths account exactly, and reading past the end
// fails.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0xff, 64, 1, 2, 3, 4, 5, 6, 7, 8, 33, 0xaa, 0xbb, 0xcc, 0xdd, 0xee})
	f.Add([]byte{64, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe, 7, 0x55})
	f.Add([]byte{0, 3, 5, 3, 5, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		type op struct {
			n int
			v uint64
		}
		var ops []op
		w, oracle := NewWriter(), NewWriter()
		total := 0
		for off := 0; off < len(data); {
			n := int(data[off] % 65)
			off++
			var raw [8]byte
			copied := copy(raw[:], data[off:])
			off += copied
			v := binary.BigEndian.Uint64(raw[:])
			want := v
			if n < 64 {
				want = v & (1<<uint(n) - 1)
			}
			w.WriteBits(v, n)
			writeBitsLoop(oracle, v, n)
			sameOutput(t, w, oracle)
			total += n
			if w.Len() != total {
				t.Fatalf("after %d ops: Len=%d, wrote %d bits", len(ops)+1, w.Len(), total)
			}
			ops = append(ops, op{n: n, v: want})
		}
		if want := (total + 7) / 8; w.ByteLen() != want {
			t.Fatalf("ByteLen=%d, want %d for %d bits", w.ByteLen(), want, total)
		}

		r := NewReader(w.Bytes(), w.Len())
		pos := 0
		for i, o := range ops {
			got, err := r.ReadBits(o.n)
			if err != nil {
				t.Fatalf("op %d: read %d bits: %v", i, o.n, err)
			}
			if got != o.v {
				t.Fatalf("op %d: read %#x, want %#x (%d bits)", i, got, o.v, o.n)
			}
			pos += o.n
			if r.Pos() != pos {
				t.Fatalf("op %d: Pos=%d, want %d", i, r.Pos(), pos)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("Remaining=%d after reading everything", r.Remaining())
		}
		if _, err := r.ReadBits(1); err == nil {
			t.Fatal("reading past the end succeeded")
		}
	})
}
