package check_test

import (
	"testing"

	"morc/internal/cache"
	"morc/internal/check"
	"morc/internal/core"
	"morc/internal/rng"
	"morc/internal/sim"
)

// newSchemeLLC builds the exact LLC the simulator would run for sch,
// with MORC configuration mc (nil for the paper's default), shrunk to
// 32KB so evictions and log recycling happen constantly.
func newSchemeLLC(sch sim.Scheme, mc *core.Config) cache.LLC {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sch
	cfg.LLCBytesPerCore = 32 * 1024
	cfg.MORCConfig = mc
	return cfg.NewLLC()
}

// oracleRow is one cache the differential oracle drives.
type oracleRow struct {
	name string
	sch  sim.Scheme
	mc   *core.Config
}

// oracleRows lists every scheme at its default configuration, then MORC
// in the limit-study modes the experiments run: fig13's unlimited tags
// and LMT, fig12's unlimited tags with raw logs, and raw logs alone.
func oracleRows() []oracleRow {
	var rows []oracleRow
	for _, sch := range sim.AllSchemes() {
		rows = append(rows, oracleRow{name: sch.String(), sch: sch})
	}
	for _, m := range []struct {
		name           string
		unlimited, raw bool
	}{
		{"MORC-UnlimitedTags", true, false},
		{"MORC-UnlimitedTags-DisableCompression", true, true},
		{"MORC-DisableCompression", false, true},
	} {
		mc := core.DefaultConfig(32 * 1024)
		mc.UnlimitedTags, mc.DisableCompression = m.unlimited, m.raw
		rows = append(rows, oracleRow{name: m.name, sch: sim.MORC, mc: &mc})
	}
	return rows
}

// TestDifferentialOracleAllSchemes drives every LLC organization, and
// MORC in each limit-study mode, through the same random operation
// streams against the latest-data-wins reference model: hits must
// return the last data stored, evictions must carry it, no dirty line
// may vanish, and each scheme's structural invariants must hold
// throughout. Every MORC run must flush a log, the path that writes
// back the dirty lines a log holds.
func TestDifferentialOracleAllSchemes(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	ops := 6000
	if testing.Short() {
		// 1,500 ops flush no log in the MORC, MORCMerged and
		// MORC-UnlimitedTags rows; 2,500 flush at least 29 in each.
		seeds = seeds[:1]
		ops = 2500
	}
	for _, row := range oracleRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				c := newSchemeLLC(row.sch, row.mc)
				o := check.New(c)
				r := rng.New(seed)
				// Working set ~1.5x the 8x-capacity scheme's line count so
				// every organization sees conflict evictions.
				if err := check.Exercise(o, r, ops, 6*1024); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := check.Invariants(c); err != nil {
					t.Fatalf("seed %d: invariants after exercise: %v", seed, err)
				}
				if err := o.CheckStats(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := o.CheckConservation(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := check.Invariants(c); err != nil {
					t.Fatalf("seed %d: invariants after conservation reads: %v", seed, err)
				}
				if mc, ok := c.(*core.Cache); ok && mc.MorcStats().LogEvictions == 0 {
					t.Errorf("seed %d: no log was flushed", seed)
				}
			}
		})
	}
}

// TestEverySchemeHasInvariantChecker pins the expectation that each
// organization ships a structural self-check the harness can call.
func TestEverySchemeHasInvariantChecker(t *testing.T) {
	for _, sch := range sim.AllSchemes() {
		c := newSchemeLLC(sch, nil)
		if _, ok := c.(check.InvariantChecker); !ok {
			t.Errorf("%v: %T implements no CheckInvariants", sch, c)
		}
	}
}

// TestOracleCatchesBrokenCache makes sure the oracle itself has teeth:
// a cache that corrupts data on read must be flagged.
func TestOracleCatchesBrokenCache(t *testing.T) {
	o := check.New(&corruptingLLC{inner: cache.NewSetAssoc(32*1024, 8, cache.LRU)})
	r := rng.New(7)
	if err := check.Exercise(o, r, 2000, 512); err == nil {
		t.Fatal("oracle did not flag a cache that corrupts data on hits")
	}
}

// corruptingLLC flips a bit in every hit's payload.
type corruptingLLC struct {
	inner *cache.SetAssoc
}

func (c *corruptingLLC) Read(addr uint64) cache.ReadResult {
	res := c.inner.Read(addr)
	if res.Hit {
		out := append([]byte(nil), res.Data...)
		out[0] ^= 1
		res.Data = out
	}
	return res
}

func (c *corruptingLLC) Fill(addr uint64, data []byte) []cache.Writeback {
	return c.inner.Fill(addr, data)
}

func (c *corruptingLLC) WriteBack(addr uint64, data []byte) []cache.Writeback {
	return c.inner.WriteBack(addr, data)
}

func (c *corruptingLLC) Ratio() float64      { return c.inner.Ratio() }
func (c *corruptingLLC) Stats() *cache.Stats { return c.inner.Stats() }
