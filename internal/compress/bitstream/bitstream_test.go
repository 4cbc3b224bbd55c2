package bitstream

import (
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b101, 3)
	w.WriteBits(0xABCD, 16)
	w.WriteBit(true)
	w.WriteBits(0, 7)
	w.WriteBits(0xFFFFFFFFFFFFFFFF, 64)

	r := NewReader(w.Bytes(), w.Len())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("got %b", v)
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Fatalf("got %x", v)
	}
	if b, _ := r.ReadBit(); !b {
		t.Fatal("bit")
	}
	if v, _ := r.ReadBits(7); v != 0 {
		t.Fatalf("got %d", v)
	}
	if v, _ := r.ReadBits(64); v != 0xFFFFFFFFFFFFFFFF {
		t.Fatalf("got %x", v)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining %d", r.Remaining())
	}
}

func TestReadPastEnd(t *testing.T) {
	w := NewWriter()
	w.WriteBits(1, 4)
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadBits(5); err == nil {
		t.Fatal("expected error reading past end")
	}
	// Failed read must not advance.
	if v, err := r.ReadBits(4); err != nil || v != 1 {
		t.Fatalf("post-failure read: %v %v", v, err)
	}
}

func TestLenAndByteLen(t *testing.T) {
	w := NewWriter()
	if w.Len() != 0 || w.ByteLen() != 0 {
		t.Fatal("empty writer lengths")
	}
	w.WriteBits(0, 9)
	if w.Len() != 9 || w.ByteLen() != 2 {
		t.Fatalf("len=%d bytelen=%d", w.Len(), w.ByteLen())
	}
}

func TestReset(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xDEAD, 16)
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("reset")
	}
	w.WriteBits(0xB, 4)
	r := NewReader(w.Bytes(), w.Len())
	if v, _ := r.ReadBits(4); v != 0xB {
		t.Fatalf("got %x", v)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: any sequence of (value, width) writes reads back exactly.
	type op struct {
		V uint64
		N uint8
	}
	f := func(ops []op) bool {
		w := NewWriter()
		var want []op
		for _, o := range ops {
			n := int(o.N % 65)
			v := o.V
			if n < 64 {
				v &= (1 << uint(n)) - 1
			}
			w.WriteBits(v, n)
			want = append(want, op{v, uint8(n)})
		}
		r := NewReader(w.Bytes(), w.Len())
		for _, o := range want {
			v, err := r.ReadBits(int(o.N))
			if err != nil || v != o.V {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
