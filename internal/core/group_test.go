package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"morc/internal/cache"
	"morc/internal/compress/lbe"
	"morc/internal/rng"
)

// groupConfig is one cache shape the group differential runs.
type groupConfig struct {
	name string
	cfg  Config
}

// groupConfigs are the shapes the group must size exactly: the default
// 8 slots, dictionaries that fill within a few lines, 1, 2 and 64 slots
// (in a cache of 66 logs, so that even the short stream recycles),
// merged tags, unlimited tags, and caches of ActiveLogs+1 logs, where a
// log that closes holding only stale lines is often the one log to
// reuse, so it reclaims its own slot.
func groupConfigs() []groupConfig {
	with := func(bytes int, f func(*Config)) Config {
		cfg := DefaultConfig(bytes)
		f(&cfg)
		return cfg
	}
	return []groupConfig{
		{"default", DefaultConfig(16 * 1024)},
		{"lbe{4,2,2,2}", with(16*1024, func(c *Config) { c.LBE = lbe.Config{Dict32: 4, Dict64: 2, Dict128: 2, Dict256: 2} })},
		{"1 active", with(8*1024, func(c *Config) { c.ActiveLogs = 1 })},
		{"2 active", with(8*1024, func(c *Config) { c.ActiveLogs = 2 })},
		{"64 active", with(66*256, func(c *Config) { c.ActiveLogs, c.LogBytes = 64, 256 })},
		{"merged", with(16*1024, func(c *Config) { c.Merged = true })},
		{"unlimited tags", with(16*1024, func(c *Config) { c.UnlimitedTags = true })},
		{"self-victim, 1 active", with(1024, func(c *Config) { c.ActiveLogs = 1 })},
		{"self-victim, 8 active", with(9*512, func(c *Config) {})},
	}
}

// groupRun drives a MORC through fills, write-backs and reads next to
// its oracle: a shadow lbe.Encoder per log that appends exactly the
// lines the cache keeps and resets when the log is recycled, which is
// the encode-on-commit the group's kept trials replaced. Before every
// insert it requires each active slot's group trial to size the line
// as the slot's shadow does. After it, the log that took the line must
// hold it and have kept the bits and symbols its shadow coded, and its
// slot must hold its shadow's dictionaries, entry for entry. A shadow's
// stream must decode to the lines it took, checked once the stream is
// complete: when its log is recycled, and for every log at the end of
// a run (finish).
type groupRun struct {
	t           testing.TB
	c           *Cache
	shadows     []*shadow // per log, made when the log takes its first line
	lines       [][]byte
	fresh       uint64 // next never-used line address
	actives     []int  // scratch: c.actives before an insert
	inserts     int
	selfVictims int // recycles in which a log reclaimed its own slot
}

func newGroupRun(t testing.TB, cfg Config, seed uint64) *groupRun {
	r := rng.New(seed)
	g := &groupRun{t: t, c: New(cfg), fresh: 1 << 20}
	g.shadows = make([]*shadow, len(g.c.logs))
	words := make([]uint32, 16)
	for i := range words {
		words[i] = r.Uint32()
	}
	quads := make([]uint64, 6)
	for i := range quads {
		quads[i] = r.Uint64()
	}
	for i := 0; i < 64; i++ {
		g.lines = append(g.lines, groupLine(r, words, quads))
	}
	return g
}

// groupLine draws a line whose words mix zeros, values from small 32-
// and 64-bit pools, narrow values and random words, so lines share
// dictionary entries across logs and every granularity matches.
func groupLine(r *rng.RNG, words []uint32, quads []uint64) []byte {
	b := make([]byte, cache.LineSize)
	if r.Bool(0.1) {
		return b
	}
	for q := 0; q < cache.LineSize; q += 8 {
		if r.Bool(0.2) {
			binary.LittleEndian.PutUint64(b[q:], quads[r.Intn(len(quads))])
			continue
		}
		for w := q; w < q+8; w += 4 {
			switch {
			case r.Bool(0.3): // zero
			case r.Bool(0.4):
				binary.LittleEndian.PutUint32(b[w:], words[r.Intn(len(words))])
			case r.Bool(0.4):
				binary.LittleEndian.PutUint32(b[w:], uint32(r.Intn(1<<17)))
			default:
				binary.LittleEndian.PutUint32(b[w:], r.Uint32())
			}
		}
	}
	return b
}

// step performs the op selects; arg picks the address and the line, and
// op's high bits may overwrite one word of the line with arg, so fuzzed
// streams reach values outside the pool.
func (g *groupRun) step(op, arg byte) {
	hot := uint64(arg%32) * cache.LineSize
	data := g.lines[int(arg)%len(g.lines)]
	if op&0x80 != 0 {
		data = slices.Clone(data)
		binary.LittleEndian.PutUint32(data[int(op>>3&15)*4:], uint32(arg)*0x01010101)
	}
	switch op % 4 {
	case 0:
		g.insert(g.fresh, data, false)
		g.fresh += cache.LineSize
	case 1:
		g.insert(hot, data, false)
	case 2:
		g.insert(hot, data, true)
	default:
		g.c.Read(hot)
	}
}

// shadow is one log's oracle: an encoder and the lines it took.
type shadow struct {
	enc   *lbe.Encoder
	lines [][]byte
}

// shadow returns log li's shadow.
func (g *groupRun) shadow(li int) *shadow {
	if g.shadows[li] == nil {
		g.shadows[li] = &shadow{enc: lbe.NewEncoder(g.c.cfg.LBE)}
	}
	return g.shadows[li]
}

// decode requires log li's shadow stream to decode to the lines it took.
func (g *groupRun) decode(li int) {
	t, sh := g.t, g.shadows[li]
	t.Helper()
	dec := lbe.NewDecoder(g.c.cfg.LBE, sh.enc.Bytes(), sh.enc.Bits())
	for i, want := range sh.lines {
		if line, err := dec.Next(cache.LineSize); err != nil || !bytes.Equal(line, want) {
			t.Fatalf("insert %d: log %d's shadow stream does not decode to its line %d (%v)", g.inserts, li, i, err)
		}
	}
	if dec.BitPos() != sh.enc.Bits() {
		t.Fatalf("insert %d: log %d's shadow stream decodes in %d of its %d bits", g.inserts, li, dec.BitPos(), sh.enc.Bits())
	}
}

// finish decodes every shadow and checks the invariants.
func (g *groupRun) finish() {
	g.t.Helper()
	for li, sh := range g.shadows {
		if sh != nil {
			g.decode(li)
		}
	}
	if err := g.c.CheckInvariants(); err != nil {
		g.t.Fatalf("after %d inserts: %v", g.inserts, err)
	}
}

// insert compares the group's sizes of data with the shadows', fills or
// writes it back, and checks the log that took it against its shadow,
// counting a recycle that left every slot's log in place as a log
// reclaiming its own slot.
func (g *groupRun) insert(addr uint64, data []byte, writeBack bool) {
	t, c := g.t, g.c
	t.Helper()
	got := c.group.TrialBits(data)
	for i, li := range c.actives {
		if want := g.shadow(li).enc.TrialBits(data); got[i] != want {
			t.Fatalf("insert %d: slot %d (log %d): group trial %d bits, its shadow's TrialBits %d",
				g.inserts, i, li, got[i], want)
		}
	}
	g.actives = append(g.actives[:0], c.actives...)
	recycles := c.st.LogEvictions + c.st.LogReuses
	if writeBack {
		c.WriteBack(addr, data)
	} else {
		c.Fill(addr, data)
	}
	recycled := c.st.LogEvictions+c.st.LogReuses != recycles
	if recycled && slices.Equal(g.actives, c.actives) {
		g.selfVictims++
	}
	g.kept(addr, data, recycled)
	g.inserts++
}

// kept appends data to the shadow of the log that took it, and checks
// the log against it. An insert that recycled a log put the line in
// the log it opened, so that log's shadow decodes its old stream and
// resets first.
func (g *groupRun) kept(addr uint64, data []byte, recycled bool) {
	t, c := g.t, g.c
	t.Helper()
	rec := c.peek(addr)
	if rec == nil {
		t.Fatalf("insert %d: %#x is not in the cache", g.inserts, addr)
	}
	li, idx := int(rec.log), int(rec.pos)
	lg, sh := c.logs[li], g.shadow(li)
	if recycled {
		g.decode(li)
		sh.enc.Reset()
		sh.lines = sh.lines[:0]
	}
	if len(sh.lines) != idx || !bytes.Equal(rec.data[:], data) {
		t.Fatalf("insert %d: log %d took the line as line %d, its shadow holds %d lines",
			g.inserts, li, idx, len(sh.lines))
	}
	sh.enc.AppendCommit(data)
	sh.lines = append(sh.lines, data)
	if rec.endBits != sh.enc.Bits() || lg.bits != sh.enc.Bits() {
		t.Fatalf("insert %d: log %d ends line %d at bit %d of %d, its shadow at %d",
			g.inserts, li, idx, rec.endBits, lg.bits, sh.enc.Bits())
	}
	if lg.syms != sh.enc.Stats() {
		t.Fatalf("insert %d: log %d's symbols %v, its shadow's %v", g.inserts, li, lg.syms, sh.enc.Stats())
	}
	slot := slices.Index(c.actives, li)
	if slot < 0 {
		t.Fatalf("insert %d: log %d took the line in no group slot", g.inserts, li)
	}
	if err := c.group.CheckSlot(slot, sh.enc); err != nil {
		t.Fatalf("insert %d: log %d: %v", g.inserts, li, err)
	}
}

// peek returns the record of the line at addr, or nil, without
// touching the LMT's recency as a read would.
func (c *Cache) peek(addr uint64) *lineRec {
	la := cache.LineAddr(addr)
	if c.cfg.UnlimitedTags {
		if id, ok := c.unlIndex[la]; ok {
			return c.recs.at(id)
		}
		return nil
	}
	var cand [MaxLMTAssoc]int
	_, rec := c.lmtFind(la, c.lmtCandidates(la, cand[:0]))
	return rec
}

// selfVictimStream parks one valid line, then writes back a single
// address over and over: the logs fill with stale copies, and a closing
// log that holds none of the live lines is often the only log to reuse.
func (g *groupRun) selfVictimStream(n int) {
	g.insert(0, g.lines[0], false)
	for i := 0; i < n; i++ {
		g.insert(cache.LineSize, g.lines[1+i%(len(g.lines)-1)], true)
	}
}

// TestGroupTrialMatchesPerLog runs seeded streams of fills, write-backs
// and reads (and, in the ActiveLogs+1-log caches, the self-victim
// stream) through every group config, checking every insert against
// the shadow encoders and the invariants, the group's index among them,
// along the way. Every config must see both recycle kinds.
func TestGroupTrialMatchesPerLog(t *testing.T) {
	seeds, inserts := 4, 4000
	if testing.Short() {
		seeds, inserts = 2, 1000
	}
	for _, gc := range groupConfigs() {
		var st Stats
		selfVictims := 0
		for seed := 1; seed <= seeds; seed++ {
			g := newGroupRun(t, gc.cfg, uint64(seed))
			r := rng.New(uint64(seed) + 100)
			if gc.cfg.CacheBytes/gc.cfg.LogBytes == gc.cfg.ActiveLogs+1 {
				g.selfVictimStream(inserts / 2)
			}
			for g.inserts < inserts {
				op := byte(r.Intn(256))
				if g.inserts/500%2 == 1 {
					op = op&^3 | 2 // write-back phases empty closed logs into the reuse heap
				}
				g.step(op, byte(r.Intn(256)))
				if g.inserts%500 == 0 {
					if err := g.c.CheckInvariants(); err != nil {
						t.Fatalf("%s, seed %d, insert %d: %v", gc.name, seed, g.inserts, err)
					}
				}
			}
			g.finish()
			st.LogEvictions += g.c.st.LogEvictions
			st.LogReuses += g.c.st.LogReuses
			selfVictims += g.selfVictims
		}
		if st.LogEvictions == 0 || st.LogReuses == 0 {
			t.Errorf("%s: %d evictions, %d reuses: the stream misses a recycle kind", gc.name, st.LogEvictions, st.LogReuses)
		}
		if gc.cfg.CacheBytes/gc.cfg.LogBytes == gc.cfg.ActiveLogs+1 && selfVictims == 0 {
			t.Errorf("%s: no log reclaimed its own slot", gc.name)
		}
		t.Logf("%s: %d evictions, %d reuses, %d self-victims", gc.name, st.LogEvictions, st.LogReuses, selfVictims)
	}
}

// FuzzGroupTrial is TestGroupTrialMatchesPerLog with the config and the
// ops picked by the fuzz data: each byte pair is an op and its argument.
func FuzzGroupTrial(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 4, 2, 5, 2, 6, 3, 7, 0, 8, 0x84, 9, 0x86, 10, 2, 11}, byte(1))
	f.Add([]byte{2, 1, 2, 1, 2, 2, 2, 2, 1, 7, 3, 1, 2, 3, 2, 4, 2, 5, 2, 6, 2, 7, 2, 8, 2, 9, 0, 33, 0, 34}, byte(7))
	f.Add([]byte{0, 1, 2, 33, 2, 65, 2, 97, 2, 129, 2, 161, 2, 193, 2, 225, 0x8e, 1, 0x96, 33}, byte(8))
	// The self-victim stream in the 2-log cache: park a line, then write
	// back one address with a different word each time.
	selfVictim := []byte{1, 0}
	for i := 0; i < 64; i++ {
		selfVictim = append(selfVictim, 0x82|byte(i%16)<<3, byte(1+32*(i%8)))
	}
	f.Add(selfVictim, byte(7))
	configs := groupConfigs()
	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		if len(data) > 8192 {
			data = data[:8192]
		}
		g := newGroupRun(t, configs[int(sel)%len(configs)].cfg, 1)
		for i := 0; i+1 < len(data); i += 2 {
			g.step(data[i], data[i+1])
		}
		g.finish()
	})
}
