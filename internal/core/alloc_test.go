//go:build !race

// The race detector's instrumentation allocates, so this gate only
// builds without it.

package core

import (
	"runtime"
	"testing"

	"morc/internal/cache"
	"morc/internal/rng"
)

// TestSteadyStateInsertAllocs pins a warm MORC's Fill and WriteBack at
// no allocation: the log's record holds the line's bytes, and sizing
// the line against every active log, encoding it into the winner,
// recycling logs in place and copying write-backs into the cache's own
// buffers allocate nothing.
func TestSteadyStateInsertAllocs(t *testing.T) {
	r := rng.New(12)
	lines := make([][]byte, 256)
	for i := range lines {
		lines[i] = lineVal(r, i%3)
	}
	const warm, runs = 40_000, 4_000
	cfg := DefaultConfig(128 * 1024)

	// Fills stream through fresh addresses: clean lines, so neither log
	// nor LMT evictions owe memory a write-back.
	fc := New(cfg)
	var next uint64
	fill := func() {
		fc.Fill(next*cache.LineSize, lines[next%uint64(len(lines))])
		next++
	}
	// Write-backs rewrite a hot set far smaller than the cache: every
	// rewrite invalidates the previous copy, so recycled logs hold only
	// stale lines and flush nothing.
	wc := New(cfg)
	var wnext uint64
	writeBack := func() {
		wc.WriteBack(wnext%512*cache.LineSize, lines[wnext%uint64(len(lines))])
		wnext++
	}

	for _, op := range []struct {
		name string
		fn   func()
	}{{"Fill", fill}, {"WriteBack", writeBack}} {
		for i := 0; i < warm; i++ {
			op.fn()
		}
		if got := testing.AllocsPerRun(runs, op.fn); got != 0 {
			t.Errorf("steady-state %s averages %v allocations, want 0", op.name, got)
		}
	}
	if fc.MorcStats().LogEvictions == 0 || wc.MorcStats().LogReuses == 0 {
		t.Fatalf("logs never recycled (fill evictions %d, write-back reuses %d): the gate did not reach steady state",
			fc.MorcStats().LogEvictions, wc.MorcStats().LogReuses)
	}
	for _, c := range []*Cache{fc, wc} {
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewAllocatesDictionariesPerActiveLog bounds building the 2 MB
// LLC of a 16-core system: its 8 active logs get LBE dictionaries, not
// all 4096 logs. A set per log would make this 50 MB; the LMT is 1 MB,
// 262,144 entries of 4 bytes (6 MB at 24 bytes an entry), and the line
// records come from the pool as lines arrive.
func TestNewAllocatesDictionariesPerActiveLog(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(DefaultConfig(2 << 20))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	got := after.TotalAlloc - before.TotalAlloc
	if got >= 3<<20 {
		t.Errorf("New(DefaultConfig(2 MB)) allocated %.1f MB, want < 3 MB", float64(got)/(1<<20))
	}
	t.Logf("New(DefaultConfig(2 MB)) allocated %.2f MB", float64(got)/(1<<20))
}
