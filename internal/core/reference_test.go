package core

import (
	"fmt"

	"morc/internal/cache"
	"morc/internal/compress/lbe"
	"morc/internal/compress/tagdelta"
	"morc/internal/stats"
)

// refCache is the MORC storage the record pool replaced, kept as the
// differential oracle for Cache: each log holds its line records in a
// slice of its own, and each LMT entry holds the owner address, the
// recency stamp (0 marks a free entry) and the (log, line) position, 24
// bytes. UnlimitedTags' index maps an address to that position. It
// keeps every decision of the cache (the group's trials, log choice,
// victim structures, LMT replacement) as it was, and exists only so
// tests can check that the pooled records and 4-byte LMT entries give
// the same reads, write-backs and counters.
type refCache struct {
	cfg      Config
	logs     []*refLog
	actives  []int
	fresh    int
	reuse    []*refLog
	fifoHead *refLog
	fifoTail *refLog
	lmt      []refLMTEntry
	seq      uint64
	st       Stats
	unlIndex map[uint64][2]int32
	group    *lbe.Group
	trials   []trial
	wbs      []cache.Writeback
	wbLines  [][cache.LineSize]byte
}

type refLine struct {
	addr     uint64
	valid    bool
	modified bool
	endBits  int
	lmtIdx   int
	data     [cache.LineSize]byte
}

type refLog struct {
	id        int
	bits      int
	syms      lbe.SymbolStats
	tags      tagdelta.Stream
	lines     []refLine
	valid     int
	active    bool
	closedSeq uint64
	prev      *refLog
	next      *refLog
}

type refLMTEntry struct {
	logIdx  int32
	lineIdx int32
	owner   uint64
	seq     uint64
}

func newRefCache(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numLogs := cfg.CacheBytes / cfg.LogBytes
	c := &refCache{
		cfg:    cfg,
		group:  lbe.NewGroup(cfg.LBE, cfg.ActiveLogs),
		trials: make([]trial, cfg.ActiveLogs),
		fresh:  cfg.ActiveLogs,
	}
	c.logs = make([]*refLog, numLogs)
	for i := range c.logs {
		lg := &refLog{id: i, tags: *tagdelta.NewStream(cfg.Tag)}
		if i < cfg.ActiveLogs {
			lg.active = true
			c.actives = append(c.actives, i)
		} else {
			c.seq++
			lg.closedSeq = c.seq
		}
		c.logs[i] = lg
	}
	if cfg.UnlimitedTags {
		c.unlIndex = make(map[uint64][2]int32)
	} else {
		c.lmt = make([]refLMTEntry, cfg.CacheBytes/cache.LineSize*cfg.LMTFactor)
	}
	c.st.LatencyBytes = stats.NewHistogram([]float64{65, 129, 193, 257, 321, 385, 449, 513})
	return c
}

func (c *refCache) lmtCandidates(addr uint64, buf []int) []int {
	tag := cache.LineTag(addr)
	buf = buf[:0]
	for w := 0; w < c.cfg.LMTAssoc; w++ {
		h := lmtMix(tag + uint64(w)*0x9e3779b97f4a7c15)
		buf = append(buf, int(h%uint64(len(c.lmt))))
	}
	return buf
}

func (c *refCache) lmtLookup(addr uint64) int {
	la := cache.LineAddr(addr)
	var cand [8]int
	for _, i := range c.lmtCandidates(addr, cand[:0]) {
		if c.lmt[i].seq != 0 && c.lmt[i].owner == la {
			return i
		}
	}
	return -1
}

func (c *refCache) lmtValidWays(addr uint64, buf []int) []int {
	cands := c.lmtCandidates(addr, buf)
	ways := cands[:0]
	for _, i := range cands {
		if c.lmt[i].seq != 0 {
			ways = append(ways, i)
		}
	}
	return ways
}

func (c *refCache) Read(addr uint64) cache.ReadResult {
	c.st.Reads++
	logIdx, lineIdx, ok, missExtra := c.locate(addr)
	if !ok {
		c.st.Misses++
		c.st.ExtraCycles += uint64(missExtra)
		return cache.ReadResult{ExtraCycles: missExtra}
	}
	extra := tagDecodeCycles(lineIdx+1) + dataDecodeCycles(lineIdx)
	c.st.Hits++
	c.st.ExtraCycles += uint64(extra)
	c.st.TagCycles += uint64(tagDecodeCycles(lineIdx + 1))
	c.st.Decompressed += uint64((lineIdx + 1) * cache.LineSize)
	c.st.LatencyBytes.Add(float64((lineIdx + 1) * cache.LineSize))
	return cache.ReadResult{Hit: true, Data: c.logs[logIdx].lines[lineIdx].data[:], ExtraCycles: extra}
}

func (c *refCache) locate(addr uint64) (logIdx, lineIdx int, ok bool, missExtra int) {
	la := cache.LineAddr(addr)
	if c.cfg.UnlimitedTags {
		if pos, found := c.unlIndex[la]; found {
			return int(pos[0]), int(pos[1]), true, 0
		}
		c.st.FastMisses++
		return 0, 0, false, 0
	}
	if i := c.lmtLookup(addr); i >= 0 {
		e := &c.lmt[i]
		c.seq++
		e.seq = c.seq
		return int(e.logIdx), int(e.lineIdx), true, 0
	}
	var buf [8]int
	ways := c.lmtValidWays(addr, buf[:0])
	if len(ways) == 0 {
		c.st.FastMisses++
		return 0, 0, false, 0
	}
	c.st.AliasedMisses++
	for _, i := range ways {
		lg := c.logs[c.lmt[i].logIdx]
		cycles := tagDecodeCycles(len(lg.lines))
		missExtra += cycles
		c.st.TagCycles += uint64(cycles)
	}
	return 0, 0, false, missExtra
}

func (c *refCache) Fill(addr uint64, data []byte) []cache.Writeback {
	c.st.Fills++
	return c.insert(addr, data, false)
}

func (c *refCache) WriteBack(addr uint64, data []byte) []cache.Writeback {
	c.st.WriteBacks++
	return c.insert(addr, data, true)
}

func (c *refCache) insert(addr uint64, data []byte, modified bool) []cache.Writeback {
	if len(data) != cache.LineSize {
		panic(fmt.Sprintf("core: insert of %d bytes", len(data)))
	}
	la := cache.LineAddr(addr)
	c.wbs, c.wbLines = c.wbs[:0], c.wbLines[:0]
	wasModified := false
	if c.cfg.UnlimitedTags {
		if pos, found := c.unlIndex[la]; found {
			wasModified = c.invalidateLine(int(pos[0]), int(pos[1]))
			delete(c.unlIndex, la)
		}
	} else if i := c.lmtLookup(addr); i >= 0 {
		e := &c.lmt[i]
		wasModified = c.invalidateLine(int(e.logIdx), int(e.lineIdx))
		e.seq = 0
	}
	lmtIdx := -1
	if !c.cfg.UnlimitedTags {
		lmtIdx = c.allocLMT(addr)
	}
	logIdx, lineIdx := c.append(la, data, modified || wasModified)
	if c.cfg.UnlimitedTags {
		c.unlIndex[la] = [2]int32{int32(logIdx), int32(lineIdx)}
	} else {
		c.seq++
		c.lmt[lmtIdx] = refLMTEntry{
			logIdx:  int32(logIdx),
			lineIdx: int32(lineIdx),
			owner:   la,
			seq:     c.seq,
		}
		c.logs[logIdx].lines[lineIdx].lmtIdx = lmtIdx
	}
	for i := range c.wbs {
		c.wbs[i].Data = c.wbLines[i][:]
	}
	return c.wbs
}

func (c *refCache) toMemory(rec *refLine) {
	c.st.MemWBs++
	c.wbs = append(c.wbs, cache.Writeback{Addr: rec.addr})
	c.wbLines = append(c.wbLines, rec.data)
}

func (c *refCache) invalidateLine(logIdx, lineIdx int) (modified bool) {
	lg := c.logs[logIdx]
	rec := &lg.lines[lineIdx]
	rec.valid = false
	lg.valid--
	if !lg.active && lg.valid == 0 {
		c.fifoRemove(lg)
		c.pushReuse(lg)
	}
	return rec.modified
}

func (c *refCache) allocLMT(addr uint64) int {
	var cand [8]int
	cands := c.lmtCandidates(addr, cand[:0])
	for _, i := range cands {
		if c.lmt[i].seq == 0 {
			return i
		}
	}
	victim := cands[0]
	for _, i := range cands[1:] {
		if c.lmt[i].seq < c.lmt[victim].seq {
			victim = i
		}
	}
	c.st.LMTConflicts++
	e := &c.lmt[victim]
	if rec := &c.logs[e.logIdx].lines[e.lineIdx]; rec.modified {
		c.st.Decompressed += uint64((int(e.lineIdx) + 1) * cache.LineSize)
		c.toMemory(rec)
	}
	c.invalidateLine(int(e.logIdx), int(e.lineIdx))
	e.seq = 0
	return victim
}

func (c *refCache) fit(lg *refLog, tag uint64, dataBits int) (tagBits int, fits bool) {
	capBits := c.cfg.LogBytes * 8
	if c.cfg.DisableCompression {
		return 0, lg.bits+dataBits <= capBits
	}
	tagBits = lg.tags.TrialBits(tag)
	switch {
	case c.cfg.UnlimitedTags:
		fits = lg.bits+dataBits <= capBits
	case c.cfg.Merged:
		fits = lg.bits+dataBits+lg.tags.Bits()+tagBits <= capBits
	default:
		fits = lg.bits+dataBits <= capBits &&
			lg.tags.Bits()+tagBits <= c.cfg.TagBytesPerLog*8
	}
	c.st.Compressions++
	return tagBits, fits
}

func (c *refCache) append(la uint64, data []byte, modified bool) (logIdx, lineIdx int) {
	tag := cache.LineTag(la)
	var dataBits []int
	if !c.cfg.DisableCompression {
		dataBits = c.group.TrialBits(data)
	}
	trials := c.trials
	for i, li := range c.actives {
		db := rawBits
		if dataBits != nil {
			db = dataBits[i]
		}
		tb, fits := c.fit(c.logs[li], tag, db)
		trials[i] = trial{bits: db + tb, fits: fits}
	}
	best, worst := -1, -1
	for i := range trials {
		if !trials[i].fits {
			continue
		}
		if best < 0 || trials[i].bits < trials[best].bits {
			best = i
		}
		if worst < 0 || trials[i].bits > trials[worst].bits {
			worst = i
		}
	}
	if best < 0 {
		fullest := 0
		for i := 1; i < len(c.actives); i++ {
			if c.occBits(c.logs[c.actives[i]]) > c.occBits(c.logs[c.actives[fullest]]) {
				fullest = i
			}
		}
		c.recycle(fullest)
		lg := c.logs[c.actives[fullest]]
		db := rawBits
		if !c.cfg.DisableCompression {
			db = c.group.TrialSlot(fullest, data)
		}
		if _, fits := c.fit(lg, tag, db); !fits {
			panic(fmt.Sprintf("core: line does not fit in an empty %dB log", c.cfg.LogBytes))
		}
		return lg.id, c.commitAppend(fullest, tag, la, data, modified)
	}
	choice := best
	if c.cfg.FudgeFactor > 0 && worst >= 0 &&
		float64(trials[worst].bits-trials[best].bits) <= c.cfg.FudgeFactor*float64(trials[worst].bits) {
		least := -1
		for i := range trials {
			if !trials[i].fits {
				continue
			}
			if least < 0 || c.occBits(c.logs[c.actives[i]]) < c.occBits(c.logs[c.actives[least]]) {
				least = i
			}
		}
		choice = least
	}
	return c.actives[choice], c.commitAppend(choice, tag, la, data, modified)
}

func (c *refCache) occBits(lg *refLog) int {
	if c.cfg.Merged {
		return lg.bits + lg.tags.Bits()
	}
	return lg.bits
}

func (c *refCache) commitAppend(slot int, tag, la uint64, data []byte, modified bool) int {
	lg := c.logs[c.actives[slot]]
	if c.cfg.DisableCompression {
		lg.bits += rawBits
	} else {
		bits, syms := c.group.Keep(slot)
		lg.bits += bits
		lg.syms.Add(syms)
		lg.tags.Append(tag)
	}
	lg.lines = append(lg.lines, refLine{
		addr:     la,
		valid:    true,
		modified: modified,
		endBits:  lg.bits,
		data:     [cache.LineSize]byte(data),
	})
	lg.valid++
	return len(lg.lines) - 1
}

func (c *refCache) recycle(slot int) {
	closing := c.logs[c.actives[slot]]
	closing.active = false
	c.seq++
	closing.closedSeq = c.seq
	if closing.valid == 0 {
		c.pushReuse(closing)
	} else {
		c.fifoPush(closing)
	}
	victim := c.pickVictim()
	if victim.valid > 0 {
		c.flush(victim)
		c.st.LogEvictions++
	} else {
		c.st.LogReuses++
	}
	c.resetLog(victim)
	c.group.Reset(slot)
	victim.active = true
	victim.closedSeq = 0
	c.actives[slot] = victim.id
}

func (c *refCache) pickVictim() *refLog {
	if c.fresh < len(c.logs) {
		c.fresh++
		return c.logs[c.fresh-1]
	}
	if len(c.reuse) > 0 {
		return c.popReuse()
	}
	victim := c.fifoHead
	if victim == nil {
		panic("core: no closed log to reclaim (ActiveLogs too large)")
	}
	c.fifoRemove(victim)
	return victim
}

func (c *refCache) fifoPush(lg *refLog) {
	lg.prev, lg.next = c.fifoTail, nil
	if c.fifoTail != nil {
		c.fifoTail.next = lg
	} else {
		c.fifoHead = lg
	}
	c.fifoTail = lg
}

func (c *refCache) fifoRemove(lg *refLog) {
	if lg.prev != nil {
		lg.prev.next = lg.next
	} else {
		c.fifoHead = lg.next
	}
	if lg.next != nil {
		lg.next.prev = lg.prev
	} else {
		c.fifoTail = lg.prev
	}
	lg.prev, lg.next = nil, nil
}

func (c *refCache) pushReuse(lg *refLog) {
	h := append(c.reuse, lg)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].closedSeq <= h[i].closedSeq {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.reuse = h
}

func (c *refCache) popReuse() *refLog {
	h := c.reuse
	top, n := h[0], len(h)-1
	h[0], h[n] = h[n], nil
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].closedSeq < h[m].closedSeq {
			m = r
		}
		if h[i].closedSeq <= h[m].closedSeq {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	c.reuse = h
	return top
}

func (c *refCache) flush(lg *refLog) {
	if !c.cfg.DisableCompression {
		c.st.Decompressed += uint64(len(lg.lines) * cache.LineSize)
	}
	for i := range lg.lines {
		rec := &lg.lines[i]
		if !rec.valid {
			continue
		}
		if rec.modified {
			c.toMemory(rec)
		}
		if c.cfg.UnlimitedTags {
			delete(c.unlIndex, rec.addr)
		} else {
			c.lmt[rec.lmtIdx].seq = 0
		}
	}
}

func (c *refCache) resetLog(lg *refLog) {
	lg.bits, lg.syms = 0, lbe.SymbolStats{}
	lg.tags.Reset()
	lg.lines = lg.lines[:0]
	lg.valid = 0
}
