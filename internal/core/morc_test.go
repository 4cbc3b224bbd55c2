package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"morc/internal/cache"
	"morc/internal/rng"
)

// smallConfig returns a compact MORC for fast tests: 8KB cache, 512B
// logs (16 logs), 2 active.
func smallConfig() Config {
	cfg := DefaultConfig(8 * 1024)
	cfg.ActiveLogs = 2
	return cfg
}

func lineVal(r *rng.RNG, kind int) []byte {
	b := make([]byte, cache.LineSize)
	switch kind {
	case 0: // zeros
	case 1: // narrow
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(b[i*4:], uint32(r.Intn(200)))
		}
	default: // random
		for i := range b {
			b[i] = byte(r.Uint64())
		}
	}
	return b
}

func TestFillThenReadHit(t *testing.T) {
	c := New(smallConfig())
	data := lineVal(rng.New(1), 2)
	c.Fill(0x1000, data)
	r := c.Read(0x1000)
	if !r.Hit {
		t.Fatal("miss after fill")
	}
	if !bytes.Equal(r.Data, data) {
		t.Fatal("wrong data")
	}
	if r.ExtraCycles <= 0 {
		t.Fatal("hit charged no decompression latency")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMissOnEmpty(t *testing.T) {
	c := New(smallConfig())
	r := c.Read(0x2000)
	if r.Hit {
		t.Fatal("phantom hit")
	}
	if c.MorcStats().FastMisses != 1 {
		t.Fatal("empty-cache miss was not a fast miss")
	}
	if r.ExtraCycles != 0 {
		t.Fatal("fast miss charged latency")
	}
}

func TestDecompressionLatencyGrowsWithPosition(t *testing.T) {
	cfg := smallConfig()
	cfg.ActiveLogs = 1 // force same log
	c := New(cfg)
	r := rng.New(2)
	// Fill several lines into one log; later lines must cost more.
	addrs := []uint64{0x0, 0x40, 0x80, 0xC0}
	for _, a := range addrs {
		c.Fill(a, lineVal(r, 1))
	}
	first := c.Read(addrs[0]).ExtraCycles
	last := c.Read(addrs[3]).ExtraCycles
	if last <= first {
		t.Fatalf("latency not position-dependent: first=%d last=%d", first, last)
	}
	// Position 0: 1 tag cycle + 64/16 data cycles = 5.
	if first != 5 {
		t.Fatalf("first-line latency = %d, want 5", first)
	}
	// Position 3: ceil(4/8)=1 tag cycle + 4*64/16=16 data cycles.
	if last != 17 {
		t.Fatalf("fourth-line latency = %d, want 17", last)
	}
}

func TestWriteBackInvalidatesOldCopy(t *testing.T) {
	c := New(smallConfig())
	r := rng.New(3)
	old := lineVal(r, 1)
	c.Fill(0x40, old)
	newData := lineVal(r, 2)
	c.WriteBack(0x40, newData)
	got := c.Read(0x40)
	if !got.Hit || !bytes.Equal(got.Data, newData) {
		t.Fatal("read did not return latest write-back data")
	}
	if c.InvalidFraction() == 0 {
		t.Fatal("old copy was not invalidated")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedWriteBacksSameLine(t *testing.T) {
	c := New(smallConfig())
	r := rng.New(4)
	var last []byte
	for i := 0; i < 50; i++ {
		last = lineVal(r, 1)
		c.WriteBack(0x100, last)
	}
	got := c.Read(0x100)
	if !got.Hit || !bytes.Equal(got.Data, last) {
		t.Fatal("lost latest write")
	}
	// Exactly one valid copy.
	if c.Ratio() != float64(cache.LineSize)/float64(c.cfg.CacheBytes) {
		t.Fatalf("ratio %g implies duplicate valid copies", c.Ratio())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLogEvictionWritesBackModified: a log flush sends every modified
// line it evicts to memory, carrying the data last written to its
// address. The LMT is large enough that no conflict eviction supplies
// a write-back instead, so every write-back here comes from a flush.
func TestLogEvictionWritesBackModified(t *testing.T) {
	cfg := smallConfig()
	cfg.LMTFactor = 64
	c := New(cfg)
	r := rng.New(5)
	latest := map[uint64][]byte{} // the data last written to each address
	memory := map[uint64][]byte{} // the data each write-back carried
	for i := 0; i < 2000; i++ {
		addr := uint64(i%400) * cache.LineSize
		d := lineVal(r, 2)
		for _, wb := range c.WriteBack(addr, d) {
			if !bytes.Equal(wb.Data, latest[wb.Addr]) {
				t.Fatalf("write %d: the write-back of %#x carries stale data", i, wb.Addr)
			}
			memory[wb.Addr] = latest[wb.Addr]
		}
		latest[addr] = d
	}
	st := c.MorcStats()
	if st.LMTConflicts != 0 || st.LogEvictions == 0 || len(memory) == 0 {
		t.Fatalf("%d LMT conflicts, %d log evictions, %d addresses written back: want only flushes to write back",
			st.LMTConflicts, st.LogEvictions, len(memory))
	}
	// No modified line is lost: each address's last write is cached or
	// reached memory.
	for addr, d := range latest {
		if res := c.Read(addr); res.Hit {
			if !bytes.Equal(res.Data, d) {
				t.Fatalf("%#x: read hit returns stale data", addr)
			}
		} else if !bytes.Equal(memory[addr], d) {
			t.Fatalf("%#x: its last write was neither cached nor written back", addr)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCleanLinesNotWrittenBack(t *testing.T) {
	cfg := smallConfig()
	cfg.LMTFactor = 64 // avoid LMT conflicts dominating
	c := New(cfg)
	r := rng.New(6)
	var wbs []cache.Writeback
	for i := 0; i < 4000; i++ {
		addr := uint64(i) * cache.LineSize
		wbs = append(wbs, c.Fill(addr, lineVal(r, 2))...)
	}
	if len(wbs) != 0 {
		t.Fatalf("clean fills produced %d memory write-backs", len(wbs))
	}
	if c.MorcStats().LogEvictions == 0 {
		t.Fatal("expected log evictions")
	}
}

// findColliding locates three distinct line addresses whose single LMT
// candidate (LMTAssoc must be 1) is the same entry.
func findColliding(c *Cache) (a1, a2, a3 uint64) {
	var cand [8]int
	want := c.lmtCandidates(0, cand[:0])[0]
	found := []uint64{0}
	for a := uint64(cache.LineSize); len(found) < 3; a += cache.LineSize {
		var buf [8]int
		if c.lmtCandidates(a, buf[:0])[0] == want {
			found = append(found, a)
		}
	}
	return found[0], found[1], found[2]
}

func TestLMTConflictEviction(t *testing.T) {
	cfg := smallConfig()
	cfg.LMTFactor = 1 // tiny LMT to force conflicts
	cfg.LMTAssoc = 1
	c := New(cfg)
	r := rng.New(7)
	// Three addresses hashing to the same LMT entry.
	a1, a2, a3 := findColliding(c)
	c.Fill(a1, lineVal(r, 1))
	c.WriteBack(a2, lineVal(r, 1)) // evicts a1 (clean), installs dirty a2
	if c.MorcStats().LMTConflicts != 1 {
		t.Fatalf("LMT conflicts = %d, want 1", c.MorcStats().LMTConflicts)
	}
	if c.Read(a1).Hit {
		t.Fatal("conflicting line survived")
	}
	wbs := c.Fill(a3, lineVal(r, 1)) // evicts dirty a2 -> memory write-back
	found := false
	for _, wb := range wbs {
		if wb.Addr == a2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dirty LMT-conflict victim not written back: %+v", wbs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLMTConflictWriteBackOutlivesInsert: the line an LMT-conflict
// eviction writes back still carries its bytes when the insert that
// evicted it returns. With one active log and a one-way LMT at 1×, 64
// hot lines conflict constantly, and the log holding the evicted line
// is often emptied and reclaimed for the inserted line in the same
// call, overwriting the evicted line's record.
func TestLMTConflictWriteBackOutlivesInsert(t *testing.T) {
	cfg := DefaultConfig(2 * 1024)
	cfg.ActiveLogs = 1
	cfg.LMTFactor = 1
	cfg.LMTAssoc = 1
	c := New(cfg)
	r := rng.New(4)
	st := c.MorcStats()
	latest := map[uint64][]byte{} // the data last written to each address
	conflictWBs := 0              // write-backs of calls that flushed no log
	for i := 0; i < 4000; i++ {
		addr := uint64(r.Intn(64)) * cache.LineSize
		flushes := st.LogEvictions
		var wbs []cache.Writeback
		var written []byte
		if r.Bool(0.5) {
			written = lineVal(r, r.Intn(3))
			wbs = c.WriteBack(addr, written)
		} else if !c.Read(addr).Hit {
			if latest[addr] == nil {
				latest[addr] = lineVal(r, r.Intn(3))
			}
			wbs = c.Fill(addr, latest[addr])
		}
		for _, wb := range wbs {
			if !bytes.Equal(wb.Data, latest[wb.Addr]) {
				t.Fatalf("op %d: the write-back of %#x carries %x, last written %x", i, wb.Addr, wb.Data[:8], latest[wb.Addr][:8])
			}
		}
		if st.LogEvictions == flushes {
			conflictWBs += len(wbs)
		}
		if written != nil {
			latest[addr] = written
		}
	}
	if conflictWBs == 0 {
		t.Fatalf("%d LMT conflicts wrote back no line", st.LMTConflicts)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAliasedMissChargesTagDecode(t *testing.T) {
	cfg := smallConfig()
	cfg.LMTFactor = 1
	cfg.LMTAssoc = 1
	c := New(cfg)
	r := rng.New(8)
	a1, a2, _ := findColliding(c)
	c.Fill(a1, lineVal(r, 1))
	res := c.Read(a2) // same LMT entry, different line
	if res.Hit {
		t.Fatal("aliased access hit")
	}
	if res.ExtraCycles == 0 {
		t.Fatal("aliased miss did not charge tag decode")
	}
	if c.MorcStats().AliasedMisses != 1 {
		t.Fatalf("aliased misses = %d", c.MorcStats().AliasedMisses)
	}
}

func TestLogReusePriority(t *testing.T) {
	cfg := smallConfig()
	c := New(cfg)
	r := rng.New(9)
	// Repeatedly write back the same small set of lines with random data:
	// old copies invalidate, logs fill with garbage, and recycling should
	// mostly reuse all-invalid logs rather than flush valid ones.
	for i := 0; i < 3000; i++ {
		addr := uint64(i%8) * cache.LineSize
		c.WriteBack(addr, lineVal(r, 2))
	}
	st := c.MorcStats()
	if st.LogReuses == 0 {
		t.Fatal("no log reuses despite heavy same-line write-back traffic")
	}
	if st.LogReuses < st.LogEvictions {
		t.Fatalf("reuses %d < evictions %d; reuse priority broken", st.LogReuses, st.LogEvictions)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestClosingLogCanBeItsOwnVictim drives recycle into giving a slot
// back to the log that closed it: with two logs and one active, a valid
// line pins the closed log, so once the active log holds only stale
// copies it is the one all-invalid log to reuse.
func TestClosingLogCanBeItsOwnVictim(t *testing.T) {
	cfg := DefaultConfig(1024)
	cfg.ActiveLogs = 1
	c := New(cfg)
	r := rng.New(11)
	pinned := lineVal(r, 2)
	c.Fill(0, pinned)
	last := lineVal(r, 2)
	for i := 0; i < 100; i++ {
		last = lineVal(r, 2)
		c.WriteBack(cache.LineSize, last)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("write-back %d: %v", i, err)
		}
	}
	// Log 0 never left the closed set, so every reuse after the first
	// was log 1 reclaiming itself.
	if st := c.MorcStats(); st.LogEvictions != 0 || st.LogReuses < 3 || c.actives[0] != 1 {
		t.Fatalf("evictions %d, reuses %d, active log %d: want log 1 reusing itself", st.LogEvictions, st.LogReuses, c.actives[0])
	}
	if got := c.Read(0); !got.Hit || !bytes.Equal(got.Data, pinned) {
		t.Fatal("pinned line lost")
	}
	if got := c.Read(cache.LineSize); !got.Hit || !bytes.Equal(got.Data, last) {
		t.Fatal("rewritten line lost")
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func TestCompressionRatioAboveOneForCompressibleData(t *testing.T) {
	c := New(smallConfig())
	r := rng.New(10)
	// Fill with narrow-value lines until appends start recycling logs.
	for i := 0; i < 3000; i++ {
		c.Fill(uint64(i)*cache.LineSize, lineVal(r, 1))
	}
	if ratio := c.Ratio(); ratio < 2 {
		t.Fatalf("compression ratio %g for narrow-value data, want >= 2", ratio)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIncompressibleDataRatioNearOne(t *testing.T) {
	cfg := smallConfig()
	cfg.LMTFactor = 16
	c := New(cfg)
	r := rng.New(11)
	for i := 0; i < 3000; i++ {
		c.Fill(uint64(i)*cache.LineSize, lineVal(r, 2))
	}
	ratio := c.Ratio()
	if ratio < 0.5 || ratio > 1.3 {
		t.Fatalf("random-data ratio %g, want ~1", ratio)
	}
}

func TestMergedModeRespectsSharedCapacity(t *testing.T) {
	cfg := smallConfig()
	cfg.Merged = true
	c := New(cfg)
	r := rng.New(12)
	for i := 0; i < 2000; i++ {
		c.Fill(uint64(i)*cache.LineSize, lineVal(r, 1))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.Ratio() <= 1 {
		t.Fatalf("merged ratio %g", c.Ratio())
	}
}

func TestDisableCompressionStoresEightPerLog(t *testing.T) {
	cfg := smallConfig()
	cfg.DisableCompression = true
	c := New(cfg)
	r := rng.New(13)
	for i := 0; i < 500; i++ {
		c.Fill(uint64(i)*cache.LineSize, lineVal(r, 0))
	}
	// 8KB cache / 64B = 125... logs hold exactly LogBytes/64 = 8 lines.
	for _, lg := range c.logs {
		if len(lg.recs) > cfg.LogBytes/cache.LineSize {
			t.Fatalf("log holds %d raw lines, max %d", len(lg.recs), cfg.LogBytes/cache.LineSize)
		}
	}
	if c.Ratio() > 1.01 {
		t.Fatalf("uncompressed mode ratio %g > 1", c.Ratio())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnlimitedTagsMode(t *testing.T) {
	cfg := smallConfig()
	cfg.UnlimitedTags = true
	c := New(cfg)
	r := rng.New(14)
	for i := 0; i < 2000; i++ {
		c.Fill(uint64(i)*cache.LineSize, lineVal(r, 0)) // all zeros: extreme ratio
	}
	if c.Ratio() < 8 {
		t.Fatalf("unlimited-tags zero-line ratio %g, want >= 8", c.Ratio())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTagRegionLimitsCompression(t *testing.T) {
	// With limited tags, all-zero lines can't exceed what the tag region
	// and LMT allow (8x by default).
	c := New(smallConfig())
	r := rng.New(15)
	for i := 0; i < 4000; i++ {
		c.Fill(uint64(i)*cache.LineSize, lineVal(r, 0))
	}
	if ratio := c.Ratio(); ratio > 8.01 {
		t.Fatalf("ratio %g exceeds the 8x LMT provisioning", ratio)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolStatsAccumulate(t *testing.T) {
	c := New(smallConfig())
	r := rng.New(16)
	for i := 0; i < 1000; i++ {
		c.Fill(uint64(i)*cache.LineSize, lineVal(r, 0))
	}
	st := c.SymbolStats()
	var total uint64
	for _, n := range st {
		total += n
	}
	if total == 0 {
		t.Fatal("no symbol stats accumulated")
	}
}

func TestLatencyHistogramPopulated(t *testing.T) {
	c := New(smallConfig())
	r := rng.New(17)
	for i := 0; i < 200; i++ {
		c.Fill(uint64(i)*cache.LineSize, lineVal(r, 1))
	}
	hits := 0
	for i := 0; i < 200; i++ {
		if c.Read(uint64(i) * cache.LineSize).Hit {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no hits")
	}
	if c.MorcStats().LatencyBytes.N != uint64(hits) {
		t.Fatalf("histogram has %d samples, want %d", c.MorcStats().LatencyBytes.N, hits)
	}
}

// TestLatencyBucketsOnePerPosition: a read hit at log position p
// decompresses (p+1)×64 bytes, so hits at positions 0 to 8 land one in
// each of Figure 14's nine buckets (≤64, 65-128, …, 449-512, >512).
func TestLatencyBucketsOnePerPosition(t *testing.T) {
	cfg := smallConfig()
	cfg.ActiveLogs = 1 // one log takes every line, in fill order
	c := New(cfg)
	for i := 0; i < 9; i++ {
		c.Fill(uint64(i)*cache.LineSize, make([]byte, cache.LineSize))
	}
	for i := 0; i < 9; i++ {
		if !c.Read(uint64(i) * cache.LineSize).Hit {
			t.Fatalf("line %d missed", i)
		}
	}
	h := c.MorcStats().LatencyBytes
	if len(h.Counts) != 9 {
		t.Fatalf("%d buckets, want 9", len(h.Counts))
	}
	for b, n := range h.Counts {
		if n != 1 {
			t.Errorf("bucket %d holds %d hits, want 1: %v", b, n, h.Counts)
		}
	}
}

func TestBadConfigRejected(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.CacheBytes = 1000 },               // not multiple of log
		func(c *Config) { c.ActiveLogs = 0 },                  // too few
		func(c *Config) { c.ActiveLogs = c.CacheBytes / 512 }, // all logs active
		func(c *Config) { c.LMTFactor = 0 },                   //
		func(c *Config) { c.LMTAssoc = 0 },                    //
		func(c *Config) { c.FudgeFactor = 2 },                 //
		func(c *Config) { c.LogBytes = 64 },                   // too small
		func(c *Config) { c.TagBytesPerLog = 0 },              //
		func(c *Config) { c.ActiveLogs = 65 },                 // beyond one group's 64 slots
		func(c *Config) { c.LBE.Dict32 = 0 },                  // bad LBE config
	}
	for i, mutate := range cases {
		cfg := DefaultConfig(128 * 1024)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestInsertWrongSizePanics(t *testing.T) {
	c := New(smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("short line did not panic")
		}
	}()
	c.Fill(0, make([]byte, 32))
}

func TestStatsConsistency(t *testing.T) {
	c := New(smallConfig())
	r := rng.New(18)
	for i := 0; i < 500; i++ {
		addr := uint64(r.Intn(256)) * cache.LineSize
		if r.Bool(0.3) {
			c.WriteBack(addr, lineVal(r, 1))
		} else if res := c.Read(addr); !res.Hit {
			c.Fill(addr, lineVal(r, 1))
		}
	}
	st := c.MorcStats()
	if st.Hits+st.Misses != st.Reads {
		t.Fatalf("hits %d + misses %d != reads %d", st.Hits, st.Misses, st.Reads)
	}
	if st.FastMisses+st.AliasedMisses != st.Misses {
		t.Fatalf("fast %d + aliased %d != misses %d", st.FastMisses, st.AliasedMisses, st.Misses)
	}
}

// TestStorageSizes pins the per-line bookkeeping: an LMT entry is a
// record id in 4 bytes, and a line record, its 64 bytes included, at
// most 104.
func TestStorageSizes(t *testing.T) {
	var c Cache
	if got := unsafe.Sizeof(c.lmt[0]); got != 4 {
		t.Errorf("an LMT entry is %d bytes, want 4", got)
	}
	if got := unsafe.Sizeof(lineRec{}); got > 104 {
		t.Errorf("a line record is %d bytes, want at most 104", got)
	}
}
