package core

import (
	"bytes"
	"fmt"

	"morc/internal/cache"
	"morc/internal/compress/lbe"
	"morc/internal/compress/tagdelta"
)

// CheckInvariants verifies the structural invariants listed in DESIGN.md:
// every log's data stream, rebuilt from its lines, ends each line where
// the log recorded it, has the log's bit and symbol counts and decodes
// back to exactly the line data recorded; each active log's group slot
// holds the rebuilt stream's dictionaries, entry for entry, and the
// group's index of which slots hold each value agrees with them; the
// tag stream, rebuilt from the lines' tags and validity, is as long as
// the log's sizer counted and decodes back to them; occupancy never
// exceeds capacity, the LMT and logs agree about which lines are live,
// and every closed log is in the one victim structure its state calls
// for. It is O(cache contents) and meant for tests.
func (c *Cache) CheckInvariants() error {
	if err := c.checkVictims(); err != nil {
		return err
	}
	slotOf := make(map[int]int, len(c.actives))
	for i, li := range c.actives {
		if _, dup := slotOf[li]; dup {
			return fmt.Errorf("log %d holds two group slots", li)
		}
		slotOf[li] = i
	}
	if err := c.group.Check(); err != nil {
		return err
	}
	enc := lbe.NewEncoder(c.cfg.LBE)
	validLines := 0
	for _, lg := range c.logs {
		slot, ok := slotOf[lg.id]
		if lg.active != ok {
			return fmt.Errorf("log %d: active %v, but in a group slot %v", lg.id, lg.active, ok)
		}
		if !ok {
			slot = -1
		}
		if err := c.checkLog(lg, slot, enc); err != nil {
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
		if e.seq == 0 {
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

// checkVictims verifies the victim structures against the logs: the
// never-opened logs are empty, the reuse heap holds exactly the other
// closed all-invalid logs in heap order, and the FIFO exactly the closed
// logs with valid lines, in closing order.
func (c *Cache) checkVictims() error {
	inFIFO := make([]bool, len(c.logs))
	var prev *logT
	for lg := c.fifoHead; lg != nil; lg = lg.next {
		if inFIFO[lg.id] {
			return fmt.Errorf("victim FIFO: log %d linked twice", lg.id)
		}
		inFIFO[lg.id] = true
		if lg.prev != prev {
			return fmt.Errorf("victim FIFO: log %d has a broken back link", lg.id)
		}
		if prev != nil && prev.closedSeq >= lg.closedSeq {
			return fmt.Errorf("victim FIFO: log %d (closed %d) after log %d (closed %d)", lg.id, lg.closedSeq, prev.id, prev.closedSeq)
		}
		prev = lg
	}
	if c.fifoTail != prev {
		return fmt.Errorf("victim FIFO: tail is not the last linked log")
	}
	inReuse := make([]bool, len(c.logs))
	for i, lg := range c.reuse {
		if inReuse[lg.id] {
			return fmt.Errorf("reuse heap: log %d held twice", lg.id)
		}
		inReuse[lg.id] = true
		if p := c.reuse[(i-1)/2]; i > 0 && p.closedSeq > lg.closedSeq {
			return fmt.Errorf("reuse heap: log %d (closed %d) below log %d (closed %d)", lg.id, lg.closedSeq, p.id, p.closedSeq)
		}
	}
	for _, lg := range c.logs {
		var want string
		switch {
		case lg.id >= c.fresh:
			want = "never opened"
			if lg.active || len(lg.lines) != 0 {
				return fmt.Errorf("log %d: never opened, but active %v with %d lines", lg.id, lg.active, len(lg.lines))
			}
		case lg.active:
			want = "active"
		case lg.valid == 0:
			want = "reuse"
		default:
			want = "FIFO"
		}
		if inReuse[lg.id] != (want == "reuse") || inFIFO[lg.id] != (want == "FIFO") {
			return fmt.Errorf("log %d: %s, but in reuse heap %v, in FIFO %v", lg.id, want, inReuse[lg.id], inFIFO[lg.id])
		}
	}
	return nil
}

// checkLog checks one log, rebuilding its stream in enc; slot is its
// group slot, or -1 if it is closed.
func (c *Cache) checkLog(lg *logT, slot int, enc *lbe.Encoder) error {
	validCount := 0
	for i := range lg.lines {
		if lg.lines[i].valid {
			validCount++
		}
	}
	if validCount != lg.valid {
		return fmt.Errorf("valid count %d, recorded %d", validCount, lg.valid)
	}
	// Capacity invariants.
	capBits := c.cfg.LogBytes * 8
	switch {
	case c.cfg.UnlimitedTags:
		if lg.bits > capBits {
			return fmt.Errorf("data %d bits exceeds %d", lg.bits, capBits)
		}
	case c.cfg.Merged:
		if lg.bits+lg.tags.Bits() > capBits {
			return fmt.Errorf("data+tags %d bits exceeds %d", lg.bits+lg.tags.Bits(), capBits)
		}
	default:
		if lg.bits > capBits {
			return fmt.Errorf("data %d bits exceeds %d", lg.bits, capBits)
		}
		if lg.tags.Bits() > c.cfg.TagBytesPerLog*8 {
			return fmt.Errorf("tags %d bits exceed region %d", lg.tags.Bits(), c.cfg.TagBytesPerLog*8)
		}
	}
	if c.cfg.DisableCompression {
		// A raw log holds rawBits per line and no tags.
		if lg.bits != len(lg.lines)*rawBits || lg.tags.Count() != 0 {
			return fmt.Errorf("raw log of %d lines holds %d bits and %d tags", len(lg.lines), lg.bits, lg.tags.Count())
		}
		return nil
	}
	// The stream rebuilt from the lines, from empty dictionaries as the
	// log began, must end each line where the log recorded it, have the
	// log's bit and symbol counts and decode to exactly the recorded
	// lines, and an active log's slot must hold its dictionaries.
	enc.Reset()
	for i := range lg.lines {
		enc.AppendCommit(lg.lines[i].data[:])
		if enc.Bits() != lg.lines[i].endBits {
			return fmt.Errorf("line %d: the rebuilt stream ends at bit %d, recorded %d", i, enc.Bits(), lg.lines[i].endBits)
		}
	}
	if enc.Bits() != lg.bits {
		return fmt.Errorf("the rebuilt stream is %d bits, recorded %d", enc.Bits(), lg.bits)
	}
	if enc.Stats() != lg.syms {
		return fmt.Errorf("the rebuilt stream's symbols %v, recorded %v", enc.Stats(), lg.syms)
	}
	dec := lbe.NewDecoder(c.cfg.LBE, enc.Bytes(), enc.Bits())
	for i := range lg.lines {
		got, err := dec.Next(cache.LineSize)
		if err != nil {
			return fmt.Errorf("line %d: decode: %w", i, err)
		}
		if !bytes.Equal(got, lg.lines[i].data[:]) {
			return fmt.Errorf("line %d: stream decodes to %x, recorded %x", i, got[:8], lg.lines[i].data[:8])
		}
	}
	if slot >= 0 {
		if err := c.group.CheckSlot(slot, enc); err != nil {
			return err
		}
	}
	// The tag stream rebuilt from the lines must be as long as the log's
	// sizer counted and decode to exactly the lines' tags and validity.
	tags := make([]uint64, len(lg.lines))
	valid := make([]bool, len(lg.lines))
	for i := range lg.lines {
		tags[i], valid[i] = cache.LineTag(lg.lines[i].addr), lg.lines[i].valid
	}
	data, nbits := tagdelta.Encode(c.cfg.Tag, tags, valid)
	if nbits != lg.tags.Bits() || len(tags) != lg.tags.Count() {
		return fmt.Errorf("the rebuilt tag stream is %d bits for %d tags, recorded %d bits for %d", nbits, len(tags), lg.tags.Bits(), lg.tags.Count())
	}
	gotTags, gotValid, err := tagdelta.Decode(c.cfg.Tag, data, nbits, len(tags))
	if err != nil {
		return fmt.Errorf("tags: %w", err)
	}
	for i := range tags {
		if gotTags[i] != tags[i] || gotValid[i] != valid[i] {
			return fmt.Errorf("tag %d: decoded %#x valid %v, want %#x valid %v", i, gotTags[i], gotValid[i], tags[i], valid[i])
		}
	}
	return nil
}
