package lbe

import (
	"bytes"
	"testing"
)

// padBlocks turns fuzz data into a stream of 32-byte-multiple blocks
// (LBE's append granularity), capped at 2KB total.
func padBlocks(data []byte) [][]byte {
	if len(data) > 2048 {
		data = data[:2048]
	}
	n := len(data)
	if rem := n % 32; rem != 0 || n == 0 {
		n += 32 - rem
	}
	padded := make([]byte, n)
	copy(padded, data)
	var blocks [][]byte
	for off := 0; off < n; {
		// Alternate 32- and 64-byte blocks so both chunk shapes appear.
		size := 32
		if (off/32)%3 == 2 && n-off >= 64 {
			size = 64
		}
		blocks = append(blocks, padded[off:off+size])
		off += size
	}
	return blocks
}

// FuzzRoundTrip appends the fuzzed blocks through two encoders — one
// that runs a dropped trial Append before each commit, one that never
// trials — and asserts the committed streams are identical (trial state
// must not leak), the stream decodes back to the exact input from the
// start, and bit accounting matches what each commit reported. It then
// drives the same blocks through trial/drop/commit interleavings picked
// by the fuzz data, against the reference encoder, under the default and
// a quickly frozen configuration.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4}, 24))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 9}, 32))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultConfig()
		blocks := padBlocks(data)

		trialed := NewEncoder(cfg)
		plain := NewEncoder(cfg)
		distractor := bytes.Repeat([]byte{0xa5}, 32)
		total := 0
		for _, b := range blocks {
			// Trial-and-drop, like MORC's multi-log insertion decision.
			if p := trialed.Append(distractor); p.Bits() <= 0 {
				t.Fatal("trial append sized to 0 bits")
			}
			p := trialed.Append(b)
			trialed.Commit(p)
			n := plain.AppendCommit(b)
			if n != p.Bits() {
				t.Fatalf("same block committed as %d bits after a trial, %d without", p.Bits(), n)
			}
			total += n
		}
		if trialed.Bits() != plain.Bits() || !bytes.Equal(trialed.Bytes(), plain.Bytes()) {
			t.Fatal("dropped trial appends leaked state into the committed stream")
		}
		if plain.Bits() != total {
			t.Fatalf("encoder holds %d bits, commits reported %d", plain.Bits(), total)
		}

		var all []byte
		for _, b := range blocks {
			all = append(all, b...)
		}
		if plain.InputBytes() != len(all) {
			t.Fatalf("InputBytes=%d, appended %d", plain.InputBytes(), len(all))
		}

		d := NewDecoder(cfg, plain.Bytes(), plain.Bits())
		for i, b := range blocks {
			out, err := d.Next(len(b))
			if err != nil {
				t.Fatalf("decode block %d: %v", i, err)
			}
			if !bytes.Equal(out, b) {
				t.Fatalf("block %d round-trip mismatch:\n in  % x\n out % x", i, b, out)
			}
		}

		for _, cfg := range []Config{DefaultConfig(), tinyConfig} {
			dr := newDiffRun(t, cfg)
			for k, b := range blocks {
				op := byte(k) * 0x9d
				if len(data) > 0 {
					op += data[k*7%len(data)]
				}
				dr.step(op, b, blocks[(k+1)%len(blocks)])
			}
			dr.finish()
		}
	})
}
