package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"morc/internal/cache"
	"morc/internal/rng"
)

// diffConfig is one configuration the differential test covers.
type diffConfig struct {
	name string
	cfg  Config
}

// diffConfigs are 8 KB MORCs shaped to reach every path of the storage:
// a one-times LMT, direct-mapped or 2-way, conflicts and aliases often;
// 128-byte logs hold one incompressible line, so nearly every insert of
// one recycles a log; and the limit-study, merged and raw modes.
func diffConfigs() []diffConfig {
	small := func(mod func(*Config)) Config {
		cfg := DefaultConfig(8 * 1024)
		cfg.ActiveLogs = 4
		mod(&cfg)
		return cfg
	}
	return []diffConfig{
		{"default", small(func(c *Config) { c.ActiveLogs = 8 })},
		{"lmt-1x-direct", small(func(c *Config) { c.LMTFactor, c.LMTAssoc = 1, 1 })},
		{"lmt-1x-2way", small(func(c *Config) { c.LMTFactor, c.LMTAssoc = 1, 2 })},
		{"128B-logs", small(func(c *Config) { c.LogBytes, c.LMTFactor = 128, 1 })},
		{"unlimited-tags", small(func(c *Config) { c.UnlimitedTags = true })},
		{"merged", small(func(c *Config) { c.Merged = true })},
		{"raw", small(func(c *Config) { c.DisableCompression, c.LMTFactor = true, 2 })},
		{"unlimited-raw", small(func(c *Config) { c.UnlimitedTags, c.DisableCompression = true, true })},
	}
}

// diffRun drives a Cache and a refCache with the same operations and
// compares every answer.
type diffRun struct {
	t     testing.TB
	c     *Cache
	ref   *refCache
	lines [][]byte
	ops   int
	wbs   int // write-backs returned
	hits  int // read hits
}

func newDiffRun(t testing.TB, cfg Config) *diffRun {
	r := rng.New(41)
	d := &diffRun{t: t, c: New(cfg), ref: newRefCache(cfg)}
	for i := 0; i < 64; i++ {
		d.lines = append(d.lines, lineVal(r, i%3))
	}
	return d
}

// step performs one operation: op's low two bits pick a Fill, a
// WriteBack or (two of four) a Read; its top two bits and arg pick one
// of 1024 addresses, and op and arg together the data.
func (d *diffRun) step(op, arg byte) {
	t := d.t
	t.Helper()
	addr := (uint64(op>>6)<<8 | uint64(arg)) * cache.LineSize
	data := d.lines[(int(op>>2)+int(arg))%len(d.lines)]
	switch op % 4 {
	case 0:
		d.compareWBs("Fill", addr, d.c.Fill(addr, data), d.ref.Fill(addr, data))
	case 1:
		d.compareWBs("WriteBack", addr, d.c.WriteBack(addr, data), d.ref.WriteBack(addr, data))
	default:
		got, want := d.c.Read(addr), d.ref.Read(addr)
		if got.Hit != want.Hit || got.ExtraCycles != want.ExtraCycles || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("op %d: Read(%#x) = hit %v, %d extra cycles, %x; the reference: hit %v, %d, %x",
				d.ops, addr, got.Hit, got.ExtraCycles, got.Data, want.Hit, want.ExtraCycles, want.Data)
		}
		if got.Hit {
			d.hits++
		}
	}
	if !reflect.DeepEqual(d.c.st, d.ref.st) {
		t.Fatalf("op %d: counters\n%s\nthe reference's\n%s", d.ops, fmtStats(&d.c.st), fmtStats(&d.ref.st))
	}
	d.ops++
}

func (d *diffRun) compareWBs(op string, addr uint64, got, want []cache.Writeback) {
	t := d.t
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("op %d: %s(%#x) wrote back %d lines, the reference %d", d.ops, op, addr, len(got), len(want))
	}
	for i := range got {
		if got[i].Addr != want[i].Addr || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("op %d: %s(%#x) write-back %d is %#x %x, the reference's %#x %x",
				d.ops, op, addr, i, got[i].Addr, got[i].Data, want[i].Addr, want[i].Data)
		}
	}
	d.wbs += len(got)
}

func fmtStats(st *Stats) string {
	return fmt.Sprintf("%+v latency %v", *st, st.LatencyBytes.Counts)
}

// TestCacheMatchesReference runs seeded op streams through every
// differential configuration, comparing each read, write-back and the
// counters after every operation, and the cache's invariants at the
// end. Every configuration must flush and reuse logs, write lines back
// and hit; every one-times LMT must conflict and alias.
func TestCacheMatchesReference(t *testing.T) {
	seeds, ops := 3, 12_000
	if testing.Short() {
		seeds, ops = 1, 6_000
	}
	for _, dc := range diffConfigs() {
		t.Run(dc.name, func(t *testing.T) {
			var st Stats
			wbs, hits := 0, 0
			for seed := 0; seed < seeds; seed++ {
				d := newDiffRun(t, dc.cfg)
				r := rng.New(uint64(100 + seed))
				for i := 0; i < ops; i++ {
					d.step(byte(r.Intn(256)), byte(r.Intn(256)))
				}
				if err := d.c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				st.LogEvictions += d.c.st.LogEvictions
				st.LogReuses += d.c.st.LogReuses
				st.LMTConflicts += d.c.st.LMTConflicts
				st.AliasedMisses += d.c.st.AliasedMisses
				wbs, hits = wbs+d.wbs, hits+d.hits
			}
			if st.LogEvictions == 0 || st.LogReuses == 0 || wbs == 0 || hits == 0 {
				t.Fatalf("evictions %d, reuses %d, write-backs %d, hits %d: the stream misses a case",
					st.LogEvictions, st.LogReuses, wbs, hits)
			}
			if !dc.cfg.UnlimitedTags && dc.cfg.LMTFactor == 1 && (st.LMTConflicts == 0 || st.AliasedMisses == 0) {
				t.Fatalf("LMT conflicts %d, aliased misses %d: the stream misses a case", st.LMTConflicts, st.AliasedMisses)
			}
			t.Logf("%d evictions, %d reuses, %d LMT conflicts, %d aliased misses, %d write-backs, %d hits",
				st.LogEvictions, st.LogReuses, st.LMTConflicts, st.AliasedMisses, wbs, hits)
		})
	}
}

// FuzzCacheMatchesReference is TestCacheMatchesReference with the
// configuration and the ops picked by the fuzz data: the first byte
// picks the configuration, and each byte pair after it is an op and
// its argument.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1, 3, 1, 5, 1, 4, 1, 6, 1})
	f.Add([]byte{2, 1, 7, 65, 7, 129, 7, 193, 7, 2, 7, 66, 7, 130, 7, 194, 7, 0, 7})
	f.Add([]byte{3, 9, 200, 13, 201, 17, 202, 21, 203, 25, 204, 1, 200, 2, 201})
	f.Add([]byte{4, 1, 9, 1, 9, 1, 9, 0, 10, 2, 9, 1, 9, 3, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 8193 {
			data = data[:8193]
		}
		configs := diffConfigs()
		d := newDiffRun(t, configs[int(data[0])%len(configs)].cfg)
		for i := 1; i+1 < len(data); i += 2 {
			d.step(data[i], data[i+1])
		}
		if err := d.c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
