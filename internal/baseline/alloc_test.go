//go:build !race

// The race detector's instrumentation allocates, so this gate only
// builds without it.

package baseline

import (
	"testing"

	"morc/internal/cache"
	"morc/internal/rng"
)

// TestWarmInsertAllocs pins a warm compressed baseline's Fill and
// WriteBack at no allocation: each slot holds its line's bytes, and a
// dirty victim is copied into the cache's own write-back buffer. The
// stream alternates fills and write-backs over 4096 lines, eight times
// the cache's uncompressed capacity, so inserts evict dirty lines.
func TestWarmInsertAllocs(t *testing.T) {
	r := rng.New(3)
	lines := make([][]byte, 64)
	for i := range lines {
		switch i % 3 {
		case 0:
			lines[i] = zeroLine()
		case 1:
			lines[i] = narrowLine(r)
		default:
			lines[i] = randomLine(r)
		}
	}
	const capacity, warm, runs = 32 * 1024, 40_000, 4_000
	llcs := []struct {
		name string
		llc  interface {
			cache.LLC
			BaselineStats() *Stats
			CheckInvariants() error
		}
	}{
		{"Adaptive", New(DefaultConfig(Adaptive, capacity))},
		{"Decoupled", New(DefaultConfig(Decoupled, capacity))},
		{"SC2", New(DefaultConfig(SC2, capacity))},
		{"Skewed", NewSkewed(capacity)},
	}
	for _, tc := range llcs {
		var next uint64
		insert := func() {
			addr, data := next%4096*cache.LineSize, lines[next%uint64(len(lines))]
			if next%2 == 0 {
				tc.llc.Fill(addr, data)
			} else {
				tc.llc.WriteBack(addr, data)
			}
			next++
		}
		for i := 0; i < warm; i++ {
			insert()
		}
		wbs := tc.llc.Stats().MemWBs
		if got := testing.AllocsPerRun(runs, insert); got != 0 {
			t.Errorf("%s: a warm insert averages %v allocations, want 0", tc.name, got)
		}
		if tc.llc.Stats().MemWBs == wbs {
			t.Errorf("%s: no insert wrote a line back: the gate missed the write-back buffer", tc.name)
		}
		if err := tc.llc.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
