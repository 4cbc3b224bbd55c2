// Package cpack implements the C-Pack cache compression algorithm
// (Chen, Yang, Dick, Shang, Lekatsas; IEEE TVLSI 2010), the payload codec
// the MORC paper uses for the Adaptive and Decoupled baselines.
//
// C-Pack compresses a cache line independently: it scans 32-bit words,
// matching them against a small dictionary built on the fly (16 entries of
// 4 bytes = 64 bytes, matching the paper's Table 4 "Dict storage 128 Byte"
// for a compressor+decompressor pair). Pattern codes:
//
//	zzzz (00)         zero word                        2 bits
//	xxxx (01)         uncompressed word                2 + 32 bits
//	mmmm (10)         full dictionary match            2 + 4 bits
//	mmxx (1100)       match upper 2 bytes              4 + 4 + 16 bits
//	zzzx (1101)       three zero bytes + literal byte  4 + 8 bits
//	mmmx (1110)       match upper 3 bytes              4 + 4 + 8 bits
//
// Unmatched and partially matched words are pushed into the dictionary
// until it is full (the dictionary then freezes). The decompressor
// rebuilds the dictionary from the decoded stream, so the format is
// self-contained per line.
package cpack

import (
	"encoding/binary"
	"fmt"

	"morc/internal/compress/bitstream"
)

// DictEntries is the number of 4-byte dictionary entries (64 bytes).
const DictEntries = 16

const ptrBits = 4 // log2(DictEntries)

// CompressedBits returns the exact size in bits of line compressed with
// C-Pack. It is the cheap path used by cache organizations that only need
// the size: it writes no stream and allocates nothing.
func CompressedBits(line []byte) int {
	checkLen(line)
	var d dict
	bits := 0
	for off := 0; off < len(line); off += 4 {
		bits += d.code([4]byte(line[off : off+4])).bits()
	}
	return bits
}

// Compress returns the compressed bitstream and its length in bits.
func Compress(line []byte) ([]byte, int) {
	checkLen(line)
	w := bitstream.NewWriter()
	var d dict
	for off := 0; off < len(line); off += 4 {
		d.code([4]byte(line[off : off+4])).write(w)
	}
	return w.Bytes(), w.Len()
}

func checkLen(line []byte) {
	if len(line)%4 != 0 {
		panic(fmt.Sprintf("cpack: line length %d not a multiple of 4", len(line)))
	}
}

// dict is the dictionary one line builds as it is coded or decoded.
type dict struct {
	n       int
	entries [DictEntries][4]byte
}

// push adds word until the dictionary is full; it then freezes.
func (d *dict) push(word [4]byte) {
	if d.n < DictEntries {
		d.entries[d.n] = word
		d.n++
	}
}

// pattern is one word's code: a prefix and up to two fields, each a
// value and its width in bits (0 for an absent field).
type pattern struct {
	prefix, a, b    uint64
	prefixN, aN, bN int
}

func (p pattern) bits() int { return p.prefixN + p.aN + p.bN }

func (p pattern) write(w *bitstream.Writer) {
	w.WriteBits(p.prefix, p.prefixN)
	if p.aN > 0 {
		w.WriteBits(p.a, p.aN)
	}
	if p.bN > 0 {
		w.WriteBits(p.b, p.bN)
	}
}

// code returns word's pattern against d, pushing the word when the
// pattern enters it in the dictionary.
func (d *dict) code(word [4]byte) pattern {
	u := binary.BigEndian.Uint32(word[:])
	if u == 0 {
		return pattern{prefix: 0b00, prefixN: 2} // zzzz
	}
	// zzzx: three high-order zero bytes, one literal low byte.
	if word[0] == 0 && word[1] == 0 && word[2] == 0 {
		return pattern{prefix: 0b1101, prefixN: 4, a: uint64(word[3]), aN: 8}
	}
	// Dictionary scans prefer full matches, then 3-byte, then 2-byte.
	full, m3, m2 := -1, -1, -1
	for i, e := range d.entries[:d.n] {
		if e == word {
			full = i
			break
		}
		if m3 < 0 && e[0] == word[0] && e[1] == word[1] && e[2] == word[2] {
			m3 = i
		}
		if m2 < 0 && e[0] == word[0] && e[1] == word[1] {
			m2 = i
		}
	}
	var p pattern
	switch {
	case full >= 0:
		return pattern{prefix: 0b10, prefixN: 2, a: uint64(full), aN: ptrBits} // mmmm
	case m3 >= 0:
		p = pattern{prefix: 0b1110, prefixN: 4, a: uint64(m3), aN: ptrBits, b: uint64(word[3]), bN: 8} // mmmx
	case m2 >= 0:
		p = pattern{prefix: 0b1100, prefixN: 4, a: uint64(m2), aN: ptrBits, b: uint64(binary.BigEndian.Uint16(word[2:])), bN: 16} // mmxx
	default:
		p = pattern{prefix: 0b01, prefixN: 2, a: uint64(u), aN: 32} // xxxx
	}
	// Unmatched and partially matched words enter the dictionary.
	d.push(word)
	return p
}

// Decompress decodes nWords 32-bit words from the first nbits of data.
func Decompress(data []byte, nbits, nWords int) ([]byte, error) {
	r := bitstream.NewReader(data, nbits)
	out := make([]byte, 0, nWords*4)
	var d dict
	for i := 0; i < nWords; i++ {
		word, err := decodeWord(r, &d)
		if err != nil {
			return nil, fmt.Errorf("cpack: word %d: %w", i, err)
		}
		out = append(out, word[:]...)
	}
	return out, nil
}

func decodeWord(r *bitstream.Reader, d *dict) ([4]byte, error) {
	var word [4]byte
	b1, err := r.ReadBits(1)
	if err != nil {
		return word, err
	}
	if b1 == 0 {
		b2, err := r.ReadBits(1)
		if err != nil {
			return word, err
		}
		if b2 == 0 {
			return word, nil // zzzz
		}
		v, err := r.ReadBits(32) // xxxx
		if err != nil {
			return word, err
		}
		binary.BigEndian.PutUint32(word[:], uint32(v))
		d.push(word)
		return word, nil
	}
	b2, err := r.ReadBits(1)
	if err != nil {
		return word, err
	}
	if b2 == 0 { // mmmm
		idx, err := r.ReadBits(ptrBits)
		if err != nil {
			return word, err
		}
		if int(idx) >= d.n {
			return word, fmt.Errorf("dictionary pointer %d out of range %d", idx, d.n)
		}
		return d.entries[idx], nil
	}
	b3, err := r.ReadBits(1)
	if err != nil {
		return word, err
	}
	b4, err := r.ReadBits(1)
	if err != nil {
		return word, err
	}
	switch {
	case b3 == 0 && b4 == 0: // mmxx
		idx, err := r.ReadBits(ptrBits)
		if err != nil {
			return word, err
		}
		if int(idx) >= d.n {
			return word, fmt.Errorf("dictionary pointer %d out of range %d", idx, d.n)
		}
		lo, err := r.ReadBits(16)
		if err != nil {
			return word, err
		}
		word = d.entries[idx]
		binary.BigEndian.PutUint16(word[2:], uint16(lo))
		d.push(word)
		return word, nil
	case b3 == 0 && b4 == 1: // zzzx
		v, err := r.ReadBits(8)
		if err != nil {
			return word, err
		}
		word[3] = byte(v)
		return word, nil
	case b3 == 1 && b4 == 0: // mmmx
		idx, err := r.ReadBits(ptrBits)
		if err != nil {
			return word, err
		}
		if int(idx) >= d.n {
			return word, fmt.Errorf("dictionary pointer %d out of range %d", idx, d.n)
		}
		lo, err := r.ReadBits(8)
		if err != nil {
			return word, err
		}
		word = d.entries[idx]
		word[3] = byte(lo)
		d.push(word)
		return word, nil
	default:
		return word, fmt.Errorf("invalid prefix 1111")
	}
}
