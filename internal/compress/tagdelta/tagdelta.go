// Package tagdelta implements MORC's tag compression (§3.2.4): tags are
// encoded as deltas to their immediate predecessor using a DEFLATE-style
// distance code (the paper's Table 2), plus a validity bit, a sign bit,
// and a new-base escape for deltas beyond 2MB. A multi-base variant
// tracks two bases and adds a base-selection bit, which captures two
// interleaved address streams (e.g. stack + heap, or two cores).
//
// Distance coding (distances are in units of 64-byte cache lines):
//
//	code 0-3    distance 1-4           0 precision bits
//	code 4-5    distance 5-8           1 bit
//	code 6-7    distance 9-16          2 bits
//	...                                ...
//	code 26-27  distance 8193-16384    12 bits
//	code 28-29  distance 16385-32768   13 bits
//	code 30-31  new base               0 bits (full tag follows)
//
// Because MORC appends cache lines to a log in temporal order, successive
// tags are usually near each other and compress to a handful of bits.
//
// MORC's model reads only a stream's size, so a Stream sizes a log's
// tags without writing them. Encode writes the bits and Decode reads
// them back; they exist so tests and the cache's invariant check can
// show the format round-trips and the sizes are exact.
package tagdelta

import (
	"fmt"

	"morc/internal/compress/bitstream"
)

// Config parameterizes the tag codec.
type Config struct {
	// MultiBase enables the two-base variant (adds one base-select bit per
	// tag). The paper's default MORC configuration uses 2 bases.
	MultiBase bool
}

// DefaultConfig is the paper's evaluated configuration.
func DefaultConfig() Config { return Config{MultiBase: true} }

const (
	// fullTagBits is the width of a full (uncompressed) tag. The paper
	// assumes a 48-bit physical address space and 64-byte lines, so a
	// full line tag is 42 bits.
	fullTagBits = 42
	codeBits    = 5
	maxDistance = 32768 // 2MB in 64B lines
	newBaseCode = 30
)

// distCode returns the Table 2 code and precision-bit count for a
// distance in [1, maxDistance].
func distCode(dist uint64) (code, precBits int, extra uint64) {
	if dist < 1 || dist > maxDistance {
		panic(fmt.Sprintf("tagdelta: distance %d out of range", dist))
	}
	if dist <= 4 {
		return int(dist - 1), 0, 0
	}
	// Group k (k>=0): codes 2k+4 and 2k+5 cover (2^(k+2), 2^(k+3)],
	// each code spanning 2^(k+1) distances with k+1 precision bits.
	k := 0
	for dist > uint64(1)<<uint(k+3) {
		k++
	}
	span := uint64(1) << uint(k+1)
	base := uint64(1)<<uint(k+2) + 1
	off := dist - base
	code = 2*k + 4 + int(off/span)
	extra = off % span
	return code, k + 1, extra
}

// distFromCode inverts distCode.
func distFromCode(code int, extra uint64) uint64 {
	if code < 4 {
		return uint64(code) + 1
	}
	k := (code - 4) / 2
	span := uint64(1) << uint(k+1)
	base := uint64(1)<<uint(k+2) + 1
	return base + uint64((code-4)%2)*span + extra
}

// deltaBits returns the encoded size in bits of encoding tag against base:
// sign + code + precision for a reachable delta, or the new-base escape.
// It does not include the validity or base-select bits.
func deltaBits(tag, base uint64, haveBase bool) int {
	dist, _ := delta(tag, base)
	if !haveBase || dist == 0 || dist > maxDistance {
		return codeBits + fullTagBits
	}
	_, prec, _ := distCode(dist)
	return 1 + codeBits + prec
}

// delta returns tag's distance from base and whether tag lies below it.
func delta(tag, base uint64) (dist uint64, neg bool) {
	if tag >= base {
		return tag - base, false
	}
	return base - tag, true
}

// Stream sizes one log's compressed tag stream as tags are appended,
// for the multi-log insertion decision: it keeps the bases, their
// recency, the tag count and the bit count, and writes no bits. Encode
// writes the stream it sizes. Invalidating a tag flips its validity bit
// in place, which changes neither the size nor any later entry, so a
// Stream has nothing to do for it.
type Stream struct {
	cfg   Config
	bases [2]uint64
	have  [2]bool
	used  [2]int // last-append sequence number, for LRU tie-breaking
	count int
	bits  int
}

// NewStream returns an empty tag stream.
func NewStream(cfg Config) *Stream { return &Stream{cfg: cfg} }

// Reset empties the stream for reuse with the same configuration.
func (s *Stream) Reset() { *s = Stream{cfg: s.cfg} }

// Bits returns the stream size in bits.
func (s *Stream) Bits() int { return s.bits }

// Count returns the number of tags appended.
func (s *Stream) Count() int { return s.count }

// pick chooses the base tag is coded against and returns its index with
// the entry's size in bits.
func (s *Stream) pick(tag uint64) (idx, bits int) {
	c0 := deltaBits(tag, s.bases[0], s.have[0])
	if !s.cfg.MultiBase {
		return 0, 1 + c0 // validity bit + delta
	}
	// Validity and base-select bits + the chosen base's delta.
	c1 := deltaBits(tag, s.bases[1], s.have[1])
	switch {
	case c1 < c0:
		return 1, 2 + c1
	case c0 < c1:
		return 0, 2 + c0
	case s.used[1] < s.used[0]:
		// Tie (typically two escapes): replace the least-recently used
		// base so interleaved streams seed both bases.
		return 1, 2 + c1
	default:
		return 0, 2 + c0
	}
}

// TrialBits returns how many bits appending tag would add, without
// modifying the stream.
func (s *Stream) TrialBits(tag uint64) int {
	_, bits := s.pick(tag)
	return bits
}

// Append sizes tag into the stream, returning the bits added.
func (s *Stream) Append(tag uint64) int {
	if tag >= 1<<fullTagBits {
		panic(fmt.Sprintf("tagdelta: tag %#x exceeds %d bits", tag, fullTagBits))
	}
	b, bits := s.pick(tag)
	s.bases[b], s.have[b] = tag, true
	s.count++
	s.used[b] = s.count
	s.bits += bits
	return bits
}

// Encode writes the stream of tags, each with its validity bit, in the
// format Decode reads. It picks each tag's base as a Stream does, so
// nbits equals the Bits of a Stream the same tags were appended to. It
// panics if tags and valid differ in length.
func Encode(cfg Config, tags []uint64, valid []bool) (data []byte, nbits int) {
	if len(tags) != len(valid) {
		panic(fmt.Sprintf("tagdelta: Encode of %d tags with %d validity bits", len(tags), len(valid)))
	}
	s := NewStream(cfg)
	w := bitstream.NewWriter()
	for i, tag := range tags {
		b, _ := s.pick(tag)
		base, haveBase := s.bases[b], s.have[b]
		s.Append(tag)
		w.WriteBit(valid[i])
		if cfg.MultiBase {
			w.WriteBits(uint64(b), 1)
		}
		dist, neg := delta(tag, base)
		if !haveBase || dist == 0 || dist > maxDistance {
			w.WriteBits(newBaseCode, codeBits)
			w.WriteBits(tag, fullTagBits)
			continue
		}
		// Code first, then sign: the 5-bit code unambiguously separates
		// delta entries (codes 0-29) from new-base escapes (30-31).
		code, prec, extra := distCode(dist)
		w.WriteBits(uint64(code), codeBits)
		w.WriteBit(neg)
		if prec > 0 {
			w.WriteBits(extra, prec)
		}
	}
	return w.Bytes(), w.Len()
}

// Decode decodes the stream, returning each tag and its validity.
// It exists to prove the format is self-consistent; MORC's timing model
// only needs sizes (decode throughput is 8 tags/cycle, §3.2.4).
func Decode(cfg Config, data []byte, nbits, n int) (tags []uint64, valid []bool, err error) {
	r := bitstream.NewReader(data, nbits)
	var bases [2]uint64
	var have [2]bool
	for i := 0; i < n; i++ {
		vb, err := r.ReadBit()
		if err != nil {
			return nil, nil, fmt.Errorf("tagdelta: tag %d: %w", i, err)
		}
		baseIdx := 0
		if cfg.MultiBase {
			b, err := r.ReadBits(1)
			if err != nil {
				return nil, nil, err
			}
			baseIdx = int(b)
		}
		codeU, err := r.ReadBits(codeBits)
		if err != nil {
			return nil, nil, err
		}
		if codeU >= newBaseCode {
			full, err := r.ReadBits(fullTagBits)
			if err != nil {
				return nil, nil, err
			}
			tags = append(tags, full)
			valid = append(valid, vb)
			bases[baseIdx] = full
			have[baseIdx] = true
			continue
		}
		code := int(codeU)
		neg, err := r.ReadBit()
		if err != nil {
			return nil, nil, err
		}
		prec := 0
		if code >= 4 {
			prec = (code-4)/2 + 1
		}
		var extra uint64
		if prec > 0 {
			extra, err = r.ReadBits(prec)
			if err != nil {
				return nil, nil, err
			}
		}
		dist := distFromCode(code, extra)
		if !have[baseIdx] {
			return nil, nil, fmt.Errorf("tagdelta: tag %d: delta against missing base", i)
		}
		var tag uint64
		if neg {
			tag = bases[baseIdx] - dist
		} else {
			tag = bases[baseIdx] + dist
		}
		tags = append(tags, tag)
		valid = append(valid, vb)
		bases[baseIdx] = tag
		have[baseIdx] = true
	}
	return tags, valid, nil
}
