package tagdelta

import (
	"encoding/binary"
	"testing"
)

// FuzzRoundTrip interprets the fuzz data as a sequence of tags (8 bytes
// each, masked to the 42-bit tag width) and invalSel as a subset of them
// to invalidate, then holds the Stream and Encode to checkStream's
// properties: TrialBits equals Append's growth, which equals Encode's
// length with or without the invalidations, and the tags decode exactly
// with the validity they were encoded with.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0), false)
	f.Add(binary.BigEndian.AppendUint64(nil, 0x1000), uint8(0), true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x10, 0, 0, 0, 0, 0, 0, 0, 0x10, 0x40}, uint8(1), false)
	seq := make([]byte, 0, 64)
	for i := uint64(0); i < 8; i++ {
		seq = binary.BigEndian.AppendUint64(seq, 0x7f000+i) // near-sequential tags
	}
	f.Add(seq, uint8(3), true)
	f.Fuzz(func(t *testing.T, data []byte, invalSel uint8, multiBase bool) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		cfg := DefaultConfig()
		cfg.MultiBase = multiBase
		mask := uint64(1)<<cfg.TagBits - 1
		var tags []uint64
		for off := 0; off+8 <= len(data); off += 8 {
			tags = append(tags, binary.BigEndian.Uint64(data[off:])&mask)
		}
		// Invalidate a deterministic subset.
		valid := allValid(len(tags))
		stride := int(invalSel%5) + 2
		for i := 0; i < len(tags); i += stride {
			valid[i] = false
		}
		if err := checkStream(cfg, tags, valid); err != nil {
			t.Fatal(err)
		}
	})
}
