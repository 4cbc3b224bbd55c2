package core

import (
	"testing"

	"morc/internal/cache"
	"morc/internal/rng"
)

// oracleVictim is the scan pickVictim made over every log before the
// victim structures replaced it, kept as their differential oracle: the
// oldest all-invalid closed log if any (reuse priority), else the oldest
// closed log.
func oracleVictim(logs []*logT) *logT {
	var reuse, victim *logT
	for _, lg := range logs {
		if lg.active {
			continue
		}
		if lg.valid == 0 {
			if reuse == nil || lg.closedSeq < reuse.closedSeq {
				reuse = lg
			}
		}
		if victim == nil || lg.closedSeq < victim.closedSeq {
			victim = lg
		}
	}
	if reuse != nil {
		return reuse
	}
	return victim
}

// victimRun drives a small MORC through fills, write-backs, reads and
// LMT conflicts, checking every log a recycle reclaims against the
// oracle scan over the logs as pickVictim saw them.
type victimRun struct {
	t       testing.TB
	c       *Cache
	lines   [][]byte
	fresh   uint64 // next never-used line address
	victims int    // recycles checked
}

// victimConfig is an 8 KB MORC (16 logs, 2 active) with a one-way LMT
// sized for 1× compression, so a short op stream recycles logs by both
// eviction and reuse and conflicts in the LMT often.
func victimConfig() Config {
	cfg := DefaultConfig(8 * 1024)
	cfg.ActiveLogs = 2
	cfg.LMTFactor = 1
	cfg.LMTAssoc = 1
	return cfg
}

func newVictimRun(t testing.TB) *victimRun {
	r := rng.New(77)
	v := &victimRun{t: t, c: New(victimConfig()), fresh: 1 << 20}
	for i := 0; i < 48; i++ {
		v.lines = append(v.lines, lineVal(r, i%3))
	}
	return v
}

// step performs the op selects; arg picks the address and the data.
// Hot addresses are 32 lines, so refills and write-backs invalidate
// earlier copies; the LMT has 128 entries, so fresh fills conflict.
func (v *victimRun) step(op, arg byte) {
	hot := uint64(arg%32) * cache.LineSize
	data := v.lines[int(arg)%len(v.lines)]
	switch op % 4 {
	case 0:
		v.insert(v.fresh, data, false)
		v.fresh += cache.LineSize
	case 1:
		v.insert(hot, data, false)
	case 2:
		v.insert(hot, data, true)
	default:
		v.c.Read(hot)
	}
}

// insert fills or writes back one line and, if that recycled a log,
// checks the victim. Only the recycle's pickVictim call sees the logs
// between the insert's invalidations and the victim's flush, so the
// oracle's view is rebuilt from the logs before and after the insert:
//   - the line went into the log that took the recycled slot, which is
//     the victim, and the slot's previous log is the one that closed;
//   - the closing log is the newest closed;
//   - closedSeq does not change between the insert's start and the
//     pick for any log the pick may choose;
//   - after the pick only the victim changes, so every other log's
//     valid count is its count after the insert, and the victim was
//     all-invalid exactly when the recycle was a reuse.
func (v *victimRun) insert(addr uint64, data []byte, writeBack bool) {
	t, c := v.t, v.c
	t.Helper()
	before := make([]logT, len(c.logs))
	for i, lg := range c.logs {
		before[i] = *lg
	}
	actives := append([]int(nil), c.actives...)
	seq, st := c.seq, *c.MorcStats()
	if writeBack {
		c.WriteBack(addr, data)
	} else {
		c.Fill(addr, data)
	}
	after := c.MorcStats()
	if after.LogEvictions+after.LogReuses == st.LogEvictions+st.LogReuses {
		return
	}
	victim := int(c.peek(addr).log)
	slot := -1
	for i, li := range c.actives {
		if li == victim {
			slot = i
		}
	}
	view := make([]*logT, len(before))
	for i := range before {
		view[i] = &before[i]
		view[i].valid = c.logs[i].valid
	}
	closing := view[actives[slot]]
	closing.active, closing.closedSeq = false, seq+1
	if after.LogReuses > st.LogReuses {
		view[victim].valid = 0
	} else {
		view[victim].valid = 1
	}
	if want := oracleVictim(view); want.id != victim {
		t.Fatalf("recycle %d reclaimed log %d; the scan picks log %d (closed %d, valid %d)",
			v.victims+1, victim, want.id, want.closedSeq, want.valid)
	}
	v.victims++
}

// TestVictimSelectionMatchesScan runs a seeded op stream and checks
// every reclaimed log against the scan, with the victim structures
// checked against the logs along the way. Every other thousand ops only
// write back the hot set, which empties closed logs faster than
// recycles reclaim them and so fills the reuse heap.
func TestVictimSelectionMatchesScan(t *testing.T) {
	v := newVictimRun(t)
	r := rng.New(5)
	maxReuse := 0
	for i := 0; i < 20_000; i++ {
		op := byte(r.Intn(256))
		if i/1000%2 == 1 {
			op = 2
		}
		v.step(op, byte(r.Intn(256)))
		maxReuse = max(maxReuse, len(v.c.reuse))
		if i%500 == 0 {
			if err := v.c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := v.c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := v.c.MorcStats()
	if st.LogEvictions == 0 || st.LogReuses == 0 || st.LMTConflicts == 0 || maxReuse < 4 {
		t.Fatalf("evictions %d, reuses %d, LMT conflicts %d, reuse heap up to %d: the stream misses a case",
			st.LogEvictions, st.LogReuses, st.LMTConflicts, maxReuse)
	}
	t.Logf("%d victims checked (%d evictions, %d reuses, %d LMT conflicts, reuse heap up to %d)",
		v.victims, st.LogEvictions, st.LogReuses, st.LMTConflicts, maxReuse)
}

// FuzzVictimSelection is TestVictimSelectionMatchesScan with the ops
// picked by the fuzz data: each byte pair is an op and its argument.
func FuzzVictimSelection(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12, 0, 13, 0, 14, 0, 15})
	f.Add([]byte{2, 1, 2, 1, 2, 2, 2, 2, 1, 7, 3, 1, 2, 3, 2, 4, 2, 5, 2, 6, 2, 7, 2, 8, 2, 9, 0, 33, 0, 34})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8192 {
			data = data[:8192]
		}
		v := newVictimRun(t)
		for i := 0; i+1 < len(data); i += 2 {
			v.step(data[i], data[i+1])
		}
		if err := v.c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestVictimStructuresStayBounded rewrites a hot set far smaller than
// the cache through 10⁵ log recycles, nearly all of them reuses of
// all-invalid logs: the reuse heap and the FIFO must stay within the
// log count. 128-byte logs hold one incompressible line, so nearly
// every write-back recycles a log.
func TestVictimStructuresStayBounded(t *testing.T) {
	recycles := uint64(100_000)
	if testing.Short() {
		recycles = 10_000
	}
	cfg := smallConfig()
	cfg.LogBytes = 128
	c := New(cfg)
	r := rng.New(21)
	lines := make([][]byte, 64)
	for i := range lines {
		lines[i] = lineVal(r, 2)
	}
	for i := uint64(0); c.st.LogEvictions+c.st.LogReuses < recycles; i++ {
		c.WriteBack(i%64*cache.LineSize, lines[i%uint64(len(lines))])
	}
	fifo := 0
	for lg := c.fifoHead; lg != nil; lg = lg.next {
		fifo++
	}
	if n := len(c.logs); len(c.reuse)+fifo > n || cap(c.reuse) > 2*n {
		t.Fatalf("after %d recycles: reuse heap %d (cap %d), FIFO %d, for %d logs",
			recycles, len(c.reuse), cap(c.reuse), fifo, n)
	}
	if c.st.LogReuses < recycles*9/10 {
		t.Fatalf("only %d of %d recycles were reuses: the stream missed the write-back hot set", c.st.LogReuses, recycles)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
