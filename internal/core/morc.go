package core

import (
	"fmt"

	"morc/internal/cache"
	"morc/internal/compress/lbe"
	"morc/internal/compress/tagdelta"
	"morc/internal/stats"
)

// Stats extends the common LLC counters with MORC-specific events.
type Stats struct {
	cache.Stats
	FastMisses    uint64 // LMT entry invalid: miss resolved without tag decode
	AliasedMisses uint64 // LMT entry valid but tag check failed
	LMTConflicts  uint64 // fills that evicted a conflicting LMT entry
	LogEvictions  uint64 // whole-log flushes
	LogReuses     uint64 // all-invalid logs reclaimed without a flush
	TagCycles     uint64 // cycles spent decompressing tags
	// LatencyBytes histograms read hits by decompressed position in the
	// log (Figure 14's buckets, in output bytes; divide by 16 for cycles).
	LatencyBytes *stats.Histogram
}

// lineRec is the bookkeeping for one appended (compressed) line. Every
// record lives in the cache's pool (recPool), which hands a log a record
// per line and takes them all back when the log is reset. A record holds
// no pointer, so the pool's pages are flat arrays that the garbage
// collector never scans.
type lineRec struct {
	addr    uint64 // line-aligned address
	seq     uint64 // LMT recency stamp for way replacement (§3.2.2)
	endBits int    // data-stream length after this line's append
	log     int32  // the log that holds the line
	pos     int32  // the line's position in that log
	lmtIdx  int32  // the LMT entry that maps the line (meaningful while valid)
	valid   bool
	// modified marks a dirty line: leaving the cache writes it back.
	modified bool
	// data is the line's uncompressed copy, from which the streams are
	// rebuilt. Read hands it out; a write-back copies it, because a
	// reset log's records go back to the pool and new lines overwrite
	// them.
	data [cache.LineSize]byte
}

// recPageLen is the number of records in one page of a recPool.
const recPageLen = 1024

// recPool holds every line record of a cache in pages of recPageLen that
// never move, so a record's address is stable and growing the pool
// copies nothing. A record is named by its id, its index in the pool.
type recPool struct {
	pages []*[recPageLen]lineRec
	n     uint32   // ids below n have been handed out
	free  []uint32 // ids of reset logs' records, reused first
}

// at returns record id.
func (p *recPool) at(id uint32) *lineRec { return &p.pages[id/recPageLen][id%recPageLen] }

// alloc returns the id of a record no log holds: a freed one if any,
// else the next in the pool, adding a page when the last is full.
func (p *recPool) alloc() uint32 {
	if k := len(p.free); k > 0 {
		id := p.free[k-1]
		p.free = p.free[:k-1]
		return id
	}
	if p.n%recPageLen == 0 {
		// An LMT entry holds id+1 in 32 bits, so the last page is never
		// added.
		if p.n == 1<<32-recPageLen {
			panic("core: the record pool is full")
		}
		//morclint:ignore hotalloc the pool grows a page at a time until it holds the most lines the logs ever keep
		p.pages = append(p.pages, new([recPageLen]lineRec))
	}
	p.n++
	return p.n - 1
}

// release returns a reset log's records to the pool.
func (p *recPool) release(ids []uint32) { p.free = append(p.free, ids...) }

// logT is one fixed-size log. Its data stream is the LBE encoding of
// its lines in order, from empty dictionaries, and its tag stream the
// tagdelta encoding of their tags and validity, so the log records only
// the streams' lengths and the data stream's symbol counts: the group's
// kept trials supply the data side (the group holds the active logs'
// dictionaries), and a tagdelta.Stream sizes the tags.
// CheckInvariants rebuilds both streams from the lines.
type logT struct {
	id        int
	bits      int             // data-stream length
	syms      lbe.SymbolStats // the stream's symbols (Figure 7)
	tags      tagdelta.Stream
	recs      []uint32 // the lines' record ids, in append order
	valid     int
	active    bool
	closedSeq uint64 // FIFO stamp set when the log is closed
	// prev and next link the log into the Cache's closed FIFO while it
	// is closed and holds valid lines.
	prev, next *logT
}

// Cache is a MORC last-level cache.
//
// Every closed log is in exactly one victim structure, so picking a
// victim costs O(log n) instead of a scan of all logs:
//   - logs[fresh:], the never-opened logs: empty, and closed before any
//     other, so they are reclaimed first, in index order;
//   - reuse, a min-heap on closedSeq of the closed all-invalid logs;
//   - the FIFO from fifoHead to fifoTail of the other closed logs, in
//     closing order. A log moves from the FIFO to reuse when its last
//     valid line is invalidated; closed logs never gain lines.
type Cache struct {
	cfg      Config
	logs     []*logT
	actives  []int // indices into logs
	fresh    int   // logs[fresh:] have never been opened
	reuse    []*logT
	fifoHead *logT
	fifoTail *logT
	recs     recPool
	// lmt is the Line-Map Table. An entry is, in hardware, a valid bit
	// and a log index; the model stores the id of the record the entry
	// maps plus one, and 0 for a free entry. The record holds the owner
	// address, the recency stamp and the (log, line) position: simulator
	// bookkeeping standing in for the tag check the hardware performs
	// against the log's compressed tag store. Each valid entry owns
	// exactly one line, so the outcomes are identical; the timing model
	// still charges the tag decode. The hardware entry also holds the
	// line's modified bit; the model keeps that on the record, where
	// UnlimitedTags mode, which has no LMT, finds it too.
	lmt      []uint32
	seq      uint64 // stamps LMT recency and log closing order
	st       Stats
	symTotal lbe.SymbolStats // aggregated from retired logs
	// unlIndex replaces the LMT under UnlimitedTags: an exact map from
	// each valid line's address to its record id.
	unlIndex map[uint64]uint32
	// group holds the active logs' dictionaries, slot i for
	// c.actives[i], and sizes a line in all of them in one walk.
	group  *lbe.Group
	trials []trial // per-insert scratch, one per active log
	// wb holds the write-backs the last Fill or WriteBack returned, as
	// copies: the log that a flush or an LMT-conflict eviction empties
	// can take the inserted line in the same call.
	wb cache.WritebackBuffer
}

// trial is one active log's sizing of the line being inserted.
type trial struct {
	bits int // data + tag growth: the storage the append consumes
	fits bool
}

// New builds a MORC cache, panicking on invalid configuration (a
// construction-time programming error, matching the package style).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numLogs := cfg.CacheBytes / cfg.LogBytes
	c := &Cache{
		cfg:    cfg,
		group:  lbe.NewGroup(cfg.LBE, cfg.ActiveLogs),
		trials: make([]trial, cfg.ActiveLogs),
		fresh:  cfg.ActiveLogs,
	}
	// Open the first ActiveLogs logs, log i in group slot i; stamp the
	// rest closed in order so the FIFO victim sequence is deterministic.
	c.logs = make([]*logT, numLogs)
	for i := range c.logs {
		lg := &logT{id: i, tags: *tagdelta.NewStream(cfg.Tag)}
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
		c.unlIndex = make(map[uint64]uint32)
	} else {
		linesAt1x := cfg.CacheBytes / cache.LineSize
		c.lmt = make([]uint32, linesAt1x*cfg.LMTFactor)
	}
	c.st.LatencyBytes = stats.NewHistogram([]float64{64, 128, 196, 256, 320, 384, 448, 512})
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the common counters (satisfies cache.LLC).
func (c *Cache) Stats() *cache.Stats { return &c.st.Stats }

// MorcStats returns the full MORC counter set.
func (c *Cache) MorcStats() *Stats { return &c.st }

// SymbolStats returns aggregate LBE symbol usage across all logs, past
// and present (Figure 7's data).
func (c *Cache) SymbolStats() lbe.SymbolStats {
	total := c.symTotal
	for _, lg := range c.logs {
		total.Add(lg.syms)
	}
	return total
}

// Ratio returns valid uncompressed bytes over data-store capacity.
func (c *Cache) Ratio() float64 {
	valid := 0
	for _, lg := range c.logs {
		valid += lg.valid
	}
	return float64(valid*cache.LineSize) / float64(c.cfg.CacheBytes)
}

// InvalidFraction returns the share of log entries that are invalid
// (Figure 12's metric).
func (c *Cache) InvalidFraction() float64 {
	total, invalid := 0, 0
	for _, lg := range c.logs {
		total += len(lg.recs)
		invalid += len(lg.recs) - lg.valid
	}
	if total == 0 {
		return 0
	}
	return float64(invalid) / float64(total)
}

// Probes implements cache.Probed with MORC's organization-specific
// gauges: data-store occupancy in compressed bits, the invalid-entry
// share (Figure 12), and the cumulative log-GC counters. Event counts
// are exposed cumulatively (gauges of totals); the telemetry layer's
// consumers difference them per epoch.
func (c *Cache) Probes() map[string]float64 {
	occBits := 0
	for _, lg := range c.logs {
		occBits += c.occBits(lg)
	}
	return map[string]float64{
		"morc_log_occupancy":    float64(occBits) / float64(c.cfg.CacheBytes*8),
		"morc_invalid_fraction": c.InvalidFraction(),
		"morc_log_evictions":    float64(c.st.LogEvictions),
		"morc_log_reuses":       float64(c.st.LogReuses),
		"morc_lmt_conflicts":    float64(c.st.LMTConflicts),
		"morc_aliased_misses":   float64(c.st.AliasedMisses),
		"morc_active_logs":      float64(len(c.actives)),
	}
}

// --- LMT ------------------------------------------------------------
//
// The LMT is modelled as the paper's column-associative / hash-rehash
// arrangement (§3.2.2): each address has LMTAssoc candidate entries at
// independent hash positions across the whole table (2-choice hashing),
// which balances load far better than fixed sets of ways.

func lmtMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// lmtCandidates returns addr's candidate entry indices.
func (c *Cache) lmtCandidates(addr uint64, buf []int) []int {
	tag := cache.LineTag(addr)
	buf = buf[:0]
	for w := 0; w < c.cfg.LMTAssoc; w++ {
		h := lmtMix(tag + uint64(w)*0x9e3779b97f4a7c15)
		buf = append(buf, int(h%uint64(len(c.lmt))))
	}
	return buf
}

// lmtFind returns the candidate entry that maps line address la, and
// the record it maps, or -1 and nil: the tag check.
func (c *Cache) lmtFind(la uint64, cands []int) (int, *lineRec) {
	for _, i := range cands {
		if e := c.lmt[i]; e != 0 {
			if rec := c.recs.at(e - 1); rec.addr == la {
				return i, rec
			}
		}
	}
	return -1, nil
}

// tagDecodeCycles is the latency of decompressing n tags at 8 tags/cycle
// (§3.2.4).
func tagDecodeCycles(n int) int { return (n + 7) / 8 }

// dataDecodeCycles is the latency of decompressing through the line at
// position idx (0-based) at 16 output bytes per cycle (§4).
func dataDecodeCycles(idx int) int { return (idx + 1) * cache.LineSize / 16 }

// --- read -------------------------------------------------------------

// Read implements the demand-lookup path of Figure 4.
func (c *Cache) Read(addr uint64) cache.ReadResult {
	c.st.Reads++
	rec, missExtra := c.locate(cache.LineAddr(addr))
	if rec == nil {
		c.st.Misses++
		c.st.ExtraCycles += uint64(missExtra)
		return cache.ReadResult{ExtraCycles: missExtra}
	}
	pos := int(rec.pos)
	extra := tagDecodeCycles(pos+1) + dataDecodeCycles(pos)
	c.st.Hits++
	c.st.ExtraCycles += uint64(extra)
	c.st.TagCycles += uint64(tagDecodeCycles(pos + 1))
	c.st.Decompressed += uint64((pos + 1) * cache.LineSize)
	c.st.LatencyBytes.Add(float64((pos + 1) * cache.LineSize))
	return cache.ReadResult{Hit: true, Data: rec.data[:], ExtraCycles: extra}
}

// locate resolves line address la to its record, refreshing its LMT
// recency, or returns nil. missExtra is the tag-decode latency charged
// when the miss could only be declared after a tag check (the "LMT
// aliased-miss" of §3.1).
func (c *Cache) locate(la uint64) (rec *lineRec, missExtra int) {
	if c.cfg.UnlimitedTags {
		if id, found := c.unlIndex[la]; found {
			return c.recs.at(id), 0
		}
		c.st.FastMisses++
		return nil, 0
	}
	var cand [MaxLMTAssoc]int
	cands := c.lmtCandidates(la, cand[:0])
	if _, rec := c.lmtFind(la, cands); rec != nil {
		c.seq++
		rec.seq = c.seq
		return rec, 0
	}
	// Aliased miss: every valid way's log tags must be decoded in full.
	ways := 0
	for _, i := range cands {
		if e := c.lmt[i]; e != 0 {
			ways++
			missExtra += tagDecodeCycles(len(c.logs[c.recs.at(e-1).log].recs))
		}
	}
	if ways == 0 {
		c.st.FastMisses++
		return nil, 0
	}
	c.st.AliasedMisses++
	c.st.TagCycles += uint64(missExtra)
	return nil, missExtra
}

// --- fill / write-back -------------------------------------------------

// Fill implements the fill path of Figure 5 (a line arriving from
// memory after an LLC read miss).
func (c *Cache) Fill(addr uint64, data []byte) []cache.Writeback {
	c.st.Fills++
	return c.insert(addr, data, false)
}

// WriteBack appends a dirty line arriving from a private cache. Logs do
// not support in-place modification, so any previous copy is invalidated
// and the new data appended (§3.1).
func (c *Cache) WriteBack(addr uint64, data []byte) []cache.Writeback {
	c.st.WriteBacks++
	return c.insert(addr, data, true)
}

func (c *Cache) insert(addr uint64, data []byte, modified bool) []cache.Writeback {
	if len(data) != cache.LineSize {
		panic(fmt.Sprintf("core: insert of %d bytes", len(data)))
	}
	la := cache.LineAddr(addr)
	c.wb.Reset()

	// Invalidate any existing copy (write-back of a line we hold, or a
	// refill of a line that aliased). The old data is stale: no memory
	// write-back is needed, but the new copy inherits its modified bit.
	if c.cfg.UnlimitedTags {
		if id, found := c.unlIndex[la]; found {
			modified = c.invalidate(c.recs.at(id)) || modified
		}
		c.unlIndex[la] = c.append(la, data, modified)
	} else {
		var cand [MaxLMTAssoc]int
		cands := c.lmtCandidates(la, cand[:0])
		if i, rec := c.lmtFind(la, cands); rec != nil {
			modified = c.invalidate(rec) || modified
			c.lmt[i] = 0
		}
		// Allocate the LMT entry (may evict a conflicting line).
		entry := c.allocLMT(cands)
		id := c.append(la, data, modified)
		rec := c.recs.at(id)
		c.seq++
		rec.seq = c.seq
		rec.lmtIdx = int32(entry)
		c.lmt[entry] = id + 1
	}
	return c.wb.Writebacks()
}

// toMemory queues a copy of a modified line leaving the cache for
// memory.
func (c *Cache) toMemory(rec *lineRec) {
	c.st.MemWBs++
	c.wb.Add(rec.addr, &rec.data)
}

// invalidate marks a valid line invalid and reports whether it was
// modified. The streams are untouched: in hardware only the tag's
// validity bit flips, which changes neither stream's size.
func (c *Cache) invalidate(rec *lineRec) (modified bool) {
	rec.valid = false
	lg := c.logs[rec.log]
	lg.valid--
	if !lg.active && lg.valid == 0 {
		c.fifoRemove(lg)
		c.pushReuse(lg)
	}
	return rec.modified
}

// allocLMT returns a free entry among an address's candidates, evicting
// the line of the least recently used one if all are taken.
func (c *Cache) allocLMT(cands []int) int {
	for _, i := range cands {
		if c.lmt[i] == 0 {
			return i
		}
	}
	// LMT conflict: evict the least-recently-used candidate (§3.1's
	// "LMT-conflict eviction").
	victim, rec := cands[0], c.recs.at(c.lmt[cands[0]]-1)
	for _, i := range cands[1:] {
		if r := c.recs.at(c.lmt[i] - 1); r.seq < rec.seq {
			victim, rec = i, r
		}
	}
	c.st.LMTConflicts++
	if rec.modified {
		// The modified line must be decompressed and sent to memory.
		c.st.Decompressed += uint64((int(rec.pos) + 1) * cache.LineSize)
		c.toMemory(rec)
	}
	c.invalidate(rec)
	c.lmt[victim] = 0
	return victim
}

// --- log management ----------------------------------------------------

// rawBits is a line's data size when DisableCompression stores it raw.
const rawBits = cache.LineSize * 8

// fit reports whether lg can accept a line whose data compresses to
// dataBits with tag, and the tag growth that costs. Each call counts
// one compression: the hardware compresses the line in every active log
// (Table 7's energy model).
func (c *Cache) fit(lg *logT, tag uint64, dataBits int) (tagBits int, fits bool) {
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

// append compresses the line into the best active log (content-aware
// multi-log selection, §3.2.3), opening a fresh log when nothing fits,
// and returns the id of its record.
func (c *Cache) append(la uint64, data []byte, modified bool) uint32 {
	tag := cache.LineTag(la)

	// One group trial sizes the line's data in every active log.
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
		// Nothing fits: close the fullest active log, recycle a victim,
		// and compress into the fresh log.
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
			// The fresh log's dictionaries are empty; sizing it alone
			// costs one trial per recycle.
			db = c.group.TrialSlot(fullest, data)
		}
		if _, fits := c.fit(lg, tag, db); !fits {
			panic(fmt.Sprintf("core: line does not fit in an empty %dB log", c.cfg.LogBytes))
		}
		return c.commitAppend(fullest, tag, la, data, modified)
	}

	// Fudge-factor diversification: when best and worst are within the
	// configured fraction, seed the least-used fitting log instead.
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

	return c.commitAppend(choice, tag, la, data, modified)
}

// occBits returns a log's current occupancy in bits.
func (c *Cache) occBits(lg *logT) int {
	if c.cfg.Merged {
		return lg.bits + lg.tags.Bits()
	}
	return lg.bits
}

// commitAppend appends the line to the active log in slot (index into
// c.actives), the one log that keeps it, and records the line in a
// record from the pool, whose id it returns: the slot keeps the group's
// last trial, which sized the line in it.
func (c *Cache) commitAppend(slot int, tag, la uint64, data []byte, modified bool) uint32 {
	lg := c.logs[c.actives[slot]]
	if c.cfg.DisableCompression {
		lg.bits += rawBits
	} else {
		bits, syms := c.group.Keep(slot)
		lg.bits += bits
		lg.syms.Add(syms)
		lg.tags.Append(tag)
	}
	id := c.recs.alloc()
	*c.recs.at(id) = lineRec{
		addr:     la,
		endBits:  lg.bits,
		log:      int32(lg.id),
		pos:      int32(len(lg.recs)),
		valid:    true,
		modified: modified,
		data:     [cache.LineSize]byte(data),
	}
	lg.recs = append(lg.recs, id)
	lg.valid++
	return id
}

// recycle closes the active log at slot (index into c.actives), selects a
// victim log — preferring all-invalid closed logs, else FIFO — flushes it
// if needed, and installs the fresh log in the slot with the slot's
// dictionaries, emptied. The closing log can be its own victim.
func (c *Cache) recycle(slot int) {
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

// pickVictim selects the log to reclaim and takes it out of the victim
// structures: the oldest all-invalid closed log if any (reuse priority,
// §3.2.1) — a never-opened log before any other — else the oldest
// closed log (FIFO, the policy the paper evaluates).
func (c *Cache) pickVictim() *logT {
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

// fifoPush appends a closing log that holds valid lines to the FIFO.
func (c *Cache) fifoPush(lg *logT) {
	lg.prev, lg.next = c.fifoTail, nil
	if c.fifoTail != nil {
		c.fifoTail.next = lg
	} else {
		c.fifoHead = lg
	}
	c.fifoTail = lg
}

// fifoRemove unlinks lg from the FIFO.
func (c *Cache) fifoRemove(lg *logT) {
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

// pushReuse adds a closed all-invalid log to the reuse heap.
func (c *Cache) pushReuse(lg *logT) {
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

// popReuse removes and returns the oldest-closed log of the reuse heap.
func (c *Cache) popReuse() *logT {
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

// flush performs a whole-log eviction: sequentially decompress, write
// back modified lines and drop the valid lines' LMT (or index) entries.
// The caller resets the log.
func (c *Cache) flush(lg *logT) {
	// Sequential decompression of the whole log (energy accounting; the
	// flush is off the critical path so no latency is charged, §3.1).
	if !c.cfg.DisableCompression {
		c.st.Decompressed += uint64(len(lg.recs) * cache.LineSize)
	}
	for _, id := range lg.recs {
		rec := c.recs.at(id)
		if !rec.valid {
			continue
		}
		if rec.modified {
			c.toMemory(rec)
		}
		if c.cfg.UnlimitedTags {
			delete(c.unlIndex, rec.addr)
		} else {
			c.lmt[rec.lmtIdx] = 0
		}
	}
}

// resetLog aggregates the retiring log's symbol counts, returns its
// records to the pool and empties the log in place.
func (c *Cache) resetLog(lg *logT) {
	c.symTotal.Add(lg.syms)
	lg.bits, lg.syms = 0, lbe.SymbolStats{}
	lg.tags.Reset()
	c.recs.release(lg.recs)
	lg.recs = lg.recs[:0]
	lg.valid = 0
}

var _ cache.LLC = (*Cache)(nil)
