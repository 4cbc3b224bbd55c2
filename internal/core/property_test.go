package core

import (
	"testing"
	"testing/quick"

	"morc/internal/cache"
	"morc/internal/check"
	"morc/internal/rng"
)

// quickCount shrinks property-test iteration counts under -short.
func quickCount(full int) int {
	if testing.Short() {
		if full > 8 {
			return full / 4
		}
		return full
	}
	return full
}

// TestReadAlwaysReturnsLatestData is the core correctness property from
// DESIGN.md: under random interleavings of fills, write-backs, and reads
// (with the evictions they trigger), a MORC read hit always returns the
// most recent data for the address, and no dirty line is lost. The
// reference model lives in internal/check (latest-data-wins oracle) so
// every organization is held to the same contract.
func TestReadAlwaysReturnsLatestData(t *testing.T) {
	f := func(seed uint64, merged bool, opsLen uint16) bool {
		cfg := DefaultConfig(8 * 1024)
		cfg.ActiveLogs = 2
		cfg.Merged = merged
		c := New(cfg)
		o := check.New(c)
		r := rng.New(seed)
		n := int(opsLen%600) + 50
		if err := check.Exercise(o, r, n, 128); err != nil {
			t.Logf("seed %d merged=%v: %v", seed, merged, err)
			return false
		}
		if err := c.CheckInvariants(); err != nil {
			t.Logf("seed %d merged=%v: %v", seed, merged, err)
			return false
		}
		if err := o.CheckConservation(); err != nil {
			t.Logf("seed %d merged=%v: %v", seed, merged, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount(40)}); err != nil {
		t.Fatal(err)
	}
}

func randomishLine(r *rng.RNG) []byte {
	b := make([]byte, cache.LineSize)
	switch r.Intn(3) {
	case 0:
		// leave zero
	case 1:
		for i := 0; i < 16; i++ {
			b[i*4] = byte(r.Intn(16))
		}
	default:
		for i := range b {
			b[i] = byte(r.Uint64())
		}
	}
	return b
}

// TestEvictedDirtyLinesReachMemory checks conservation: every dirty
// line either remains readable in the cache or was handed back via a
// Writeback. The oracle tracks the memory image from emitted
// write-backs; CheckConservation verifies the final state of every
// written address is accounted for.
func TestEvictedDirtyLinesReachMemory(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultConfig(8 * 1024)
		cfg.ActiveLogs = 2
		c := New(cfg)
		o := check.New(c)
		r := rng.New(seed)
		for i := 0; i < 800; i++ {
			addr := uint64(r.Intn(200)) * cache.LineSize
			if err := o.WriteBack(addr, randomishLine(r)); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		if err := o.CheckConservation(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount(20)}); err != nil {
		t.Fatal(err)
	}
}

// TestRatioNeverExceedsLMTProvisioning: compression ratio is bounded by
// the LMT factor in limited mode.
func TestRatioNeverExceedsLMTProvisioning(t *testing.T) {
	f := func(seed uint64, factor uint8) bool {
		cfg := DefaultConfig(8 * 1024)
		cfg.ActiveLogs = 2
		cfg.LMTFactor = int(factor%8) + 1
		c := New(cfg)
		r := rng.New(seed)
		for i := 0; i < 1000; i++ {
			c.Fill(uint64(i)*cache.LineSize, make([]byte, cache.LineSize)) // all zeros
		}
		_ = r
		return c.Ratio() <= float64(cfg.LMTFactor)+0.01 && c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount(8)}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantsUnderChurn hammers the cache with a hot working set that
// repeatedly overwrites lines, then verifies all structural invariants.
func TestInvariantsUnderChurn(t *testing.T) {
	ops := 5000
	if testing.Short() {
		ops = 1200
	}
	for _, merged := range []bool{false, true} {
		cfg := DefaultConfig(8 * 1024)
		cfg.ActiveLogs = 4
		cfg.Merged = merged
		c := New(cfg)
		r := rng.New(99)
		for i := 0; i < ops; i++ {
			addr := uint64(r.Geometric(0.05)) * cache.LineSize
			switch r.Intn(3) {
			case 0:
				c.Read(addr)
			case 1:
				c.Fill(addr, randomishLine(r))
			default:
				c.WriteBack(addr, randomishLine(r))
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("merged=%v: %v", merged, err)
		}
	}
}
