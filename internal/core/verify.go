package core

import (
	"bytes"
	"fmt"

	"morc/internal/cache"
	"morc/internal/compress/lbe"
	"morc/internal/compress/tagdelta"
)

// CheckInvariants verifies the structural invariants listed in DESIGN.md:
// every log's compressed data stream decodes back to exactly the line
// data recorded, the compressed tag stream decodes to the line tags with
// matching validity, occupancy never exceeds capacity, and the LMT and
// logs agree about which lines are live. It is O(cache contents) and
// meant for tests.
func (c *Cache) CheckInvariants() error {
	validLines := 0
	for _, lg := range c.logs {
		if err := c.checkLog(lg); err != nil {
			return fmt.Errorf("log %d: %w", lg.id, err)
		}
		validLines += lg.valid
	}
	if c.cfg.UnlimitedTags {
		if len(c.unlIndex) != validLines {
			return fmt.Errorf("index has %d entries, logs have %d valid lines", len(c.unlIndex), validLines)
		}
		return nil
	}
	validEntries := 0
	for i := range c.lmt {
		e := &c.lmt[i]
		if !e.valid {
			continue
		}
		validEntries++
		if int(e.logIdx) >= len(c.logs) {
			return fmt.Errorf("LMT %d: log index %d out of range", i, e.logIdx)
		}
		lg := c.logs[e.logIdx]
		if int(e.lineIdx) >= len(lg.lines) {
			return fmt.Errorf("LMT %d: line index %d out of range %d", i, e.lineIdx, len(lg.lines))
		}
		rec := &lg.lines[e.lineIdx]
		if !rec.valid {
			return fmt.Errorf("LMT %d: points to invalid line %d of log %d", i, e.lineIdx, e.logIdx)
		}
		if rec.addr != e.owner {
			return fmt.Errorf("LMT %d: owner %#x but line addr %#x", i, e.owner, rec.addr)
		}
		if rec.lmtIdx != i {
			return fmt.Errorf("LMT %d: line back-pointer is %d", i, rec.lmtIdx)
		}
		var cand [8]int
		found := false
		for _, ci := range c.lmtCandidates(e.owner, cand[:0]) {
			if ci == i {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("LMT %d: owner %#x does not hash to this entry", i, e.owner)
		}
	}
	if validEntries != validLines {
		return fmt.Errorf("%d valid LMT entries but %d valid lines", validEntries, validLines)
	}
	return nil
}

func (c *Cache) checkLog(lg *logT) error {
	if lg.enc.Closed() == lg.active {
		return fmt.Errorf("active %v, but its encoder closed %v: exactly the active logs hold dictionaries", lg.active, lg.enc.Closed())
	}
	validCount := 0
	for i := range lg.lines {
		if lg.lines[i].valid {
			validCount++
		}
	}
	if validCount != lg.valid {
		return fmt.Errorf("valid count %d, recorded %d", validCount, lg.valid)
	}
	if c.cfg.DisableCompression {
		if lg.rawBytes != len(lg.lines)*cache.LineSize {
			return fmt.Errorf("raw occupancy %d for %d lines", lg.rawBytes, len(lg.lines))
		}
		if lg.rawBytes > c.cfg.LogBytes {
			return fmt.Errorf("raw occupancy %d exceeds log size %d", lg.rawBytes, c.cfg.LogBytes)
		}
		return nil
	}
	// Capacity invariants.
	capBits := c.cfg.LogBytes * 8
	switch {
	case c.cfg.UnlimitedTags:
		if lg.enc.Bits() > capBits {
			return fmt.Errorf("data %d bits exceeds %d", lg.enc.Bits(), capBits)
		}
	case c.cfg.Merged:
		if lg.enc.Bits()+lg.tags.Bits() > capBits {
			return fmt.Errorf("data+tags %d bits exceeds %d", lg.enc.Bits()+lg.tags.Bits(), capBits)
		}
	default:
		if lg.enc.Bits() > capBits {
			return fmt.Errorf("data %d bits exceeds %d", lg.enc.Bits(), capBits)
		}
		if lg.tags.Bits() > c.cfg.TagBytesPerLog*8 {
			return fmt.Errorf("tags %d bits exceed region %d", lg.tags.Bits(), c.cfg.TagBytesPerLog*8)
		}
	}
	// The data stream must decode to exactly the recorded lines.
	dec := lbe.NewDecoder(c.cfg.LBE, lg.enc.Bytes(), lg.enc.Bits())
	for i := range lg.lines {
		got, err := dec.Next(cache.LineSize)
		if err != nil {
			return fmt.Errorf("line %d: decode: %w", i, err)
		}
		if !bytes.Equal(got, lg.lines[i].data) {
			return fmt.Errorf("line %d: stream decodes to %x, recorded %x", i, got[:8], lg.lines[i].data[:8])
		}
		if lg.lines[i].endBits > lg.enc.Bits() {
			return fmt.Errorf("line %d: endBits %d beyond stream %d", i, lg.lines[i].endBits, lg.enc.Bits())
		}
	}
	// The tag stream must decode to the line tags with matching validity.
	tags, valid, err := tagdelta.Decode(c.cfg.Tag, lg.tags.Bytes(), lg.tags.Bits(), len(lg.lines))
	if err != nil {
		return fmt.Errorf("tags: %w", err)
	}
	for i := range lg.lines {
		if tags[i] != cache.LineTag(lg.lines[i].addr) {
			return fmt.Errorf("tag %d: decoded %#x, want %#x", i, tags[i], cache.LineTag(lg.lines[i].addr))
		}
		if valid[i] != lg.lines[i].valid {
			return fmt.Errorf("tag %d: validity %v, want %v", i, valid[i], lg.lines[i].valid)
		}
	}
	return nil
}

// DebugLogSummary reports average per-log occupancy statistics; used by
// calibration tooling (cmd/morctrace) and tests.
func (c *Cache) DebugLogSummary() string {
	var lines, valid, dataBits, tagBits, n int
	for _, lg := range c.logs {
		if len(lg.lines) == 0 {
			continue
		}
		n++
		lines += len(lg.lines)
		valid += lg.valid
		dataBits += lg.enc.Bits()
		tagBits += lg.tags.Bits()
	}
	if n == 0 {
		return "no populated logs"
	}
	return fmt.Sprintf("logs=%d avgLines=%.1f avgValid=%.1f avgDataBits=%.0f/%d avgTagBits=%.0f/%d bitsPerTag=%.1f",
		n, float64(lines)/float64(n), float64(valid)/float64(n),
		float64(dataBits)/float64(n), c.cfg.LogBytes*8,
		float64(tagBits)/float64(n), c.cfg.TagBytesPerLog*8,
		float64(tagBits)/float64(max(lines, 1)))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
