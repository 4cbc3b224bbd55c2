package sim

import (
	"math"
	"strings"
	"testing"

	"morc/internal/energy"
	"morc/internal/trace"
)

// skipIfShort keeps multi-hundred-thousand-instruction simulations out
// of the -short lane (see README "Testing").
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("heavy simulation; run without -short")
	}
}

// quickCfg shrinks the run for fast tests.
func quickCfg(s Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = s
	cfg.WarmupInstr = 200_000
	cfg.MeasureInstr = 300_000
	cfg.SampleEvery = 50_000
	return cfg
}

// mustNewSingle is NewSingle that fails the test on an error.
func mustNewSingle(t *testing.T, workload string, cfg Config) *System {
	t.Helper()
	s, err := NewSingle(workload, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunSingleAllSchemes(t *testing.T) {
	skipIfShort(t)
	for _, s := range AllSchemes() {
		res := RunSingle("gcc", quickCfg(s))
		if res.IPC <= 0 || res.IPC > 1 {
			t.Fatalf("%v: IPC %g out of (0,1]", s, res.IPC)
		}
		if res.Throughput < res.IPC {
			t.Fatalf("%v: throughput %g below IPC %g", s, res.Throughput, res.IPC)
		}
		if res.Cores[0].Instructions < quickCfg(s).MeasureInstr {
			t.Fatalf("%v: ran %d instructions", s, res.Cores[0].Instructions)
		}
		if res.CompletionCycles == 0 {
			t.Fatalf("%v: zero cycles", s)
		}
		if res.Energy.Total() <= 0 {
			t.Fatalf("%v: no energy", s)
		}
	}
}

func TestDeterminism(t *testing.T) {
	skipIfShort(t)
	a := RunSingle("astar", quickCfg(MORC))
	b := RunSingle("astar", quickCfg(MORC))
	if a.IPC != b.IPC || a.MemBytes != b.MemBytes || a.CompRatio != b.CompRatio {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestMORCCompressesBetterThanBaselines(t *testing.T) {
	skipIfShort(t)
	// The headline result on a compressible workload.
	morc := RunSingle("gcc", quickCfg(MORC))
	adaptive := RunSingle("gcc", quickCfg(Adaptive))
	unc := RunSingle("gcc", quickCfg(Uncompressed))
	if morc.CompRatio <= adaptive.CompRatio {
		t.Fatalf("MORC ratio %.2f not above Adaptive %.2f", morc.CompRatio, adaptive.CompRatio)
	}
	if morc.CompRatio < 2 {
		t.Fatalf("MORC ratio %.2f on gcc", morc.CompRatio)
	}
	if unc.CompRatio > 1.01 {
		t.Fatalf("uncompressed ratio %.2f", unc.CompRatio)
	}
}

func TestCompressionSavesBandwidth(t *testing.T) {
	morc := RunSingle("gcc", quickCfg(MORC))
	unc := RunSingle("gcc", quickCfg(Uncompressed))
	if morc.MemBytes >= unc.MemBytes {
		t.Fatalf("MORC traffic %d not below uncompressed %d", morc.MemBytes, unc.MemBytes)
	}
}

func TestBandwidthBoundWorkloadGainsIPC(t *testing.T) {
	// gcc at 100MB/s is bandwidth-bound; the bandwidth MORC saves must
	// turn into IPC.
	morc := RunSingle("gcc", quickCfg(MORC))
	unc := RunSingle("gcc", quickCfg(Uncompressed))
	if morc.IPC <= unc.IPC {
		t.Fatalf("MORC IPC %.4f not above uncompressed %.4f", morc.IPC, unc.IPC)
	}
}

func TestAbundantBandwidthRemovesAdvantage(t *testing.T) {
	// At 1600MB/s the system is not bandwidth-bound; MORC's long
	// decompression latency should hurt single-stream IPC (Figure 10a).
	cfg := quickCfg(MORC)
	cfg.BWPerCore = 1600e6
	morc := RunSingle("gcc", cfg)
	cfgU := quickCfg(Uncompressed)
	cfgU.BWPerCore = 1600e6
	unc := RunSingle("gcc", cfgU)
	if morc.IPC >= unc.IPC {
		t.Fatalf("at 1600MB/s MORC IPC %.4f >= uncompressed %.4f", morc.IPC, unc.IPC)
	}
}

func TestComputeBoundWorkloadInsensitive(t *testing.T) {
	// povray mostly hits in L1/LLC: schemes should be within a few
	// percent of each other.
	morc := RunSingle("povray", quickCfg(MORC))
	unc := RunSingle("povray", quickCfg(Uncompressed))
	rel := morc.IPC / unc.IPC
	if rel < 0.8 || rel > 1.3 {
		t.Fatalf("povray MORC/uncompressed IPC ratio %.2f, want ~1", rel)
	}
}

func TestThroughputModelHidesLatency(t *testing.T) {
	skipIfShort(t)
	// CGMT throughput must exceed single-thread IPC when stalls exist.
	res := RunSingle("mcf", quickCfg(MORC))
	if res.Cores[0].StallCycles == 0 {
		t.Fatal("mcf produced no stalls")
	}
	if res.Throughput <= res.IPC {
		t.Fatalf("throughput %.4f not above IPC %.4f", res.Throughput, res.IPC)
	}
}

func TestMultiProgramMixRuns(t *testing.T) {
	skipIfShort(t)
	cfg := quickCfg(MORC)
	cfg.WarmupInstr = 20_000
	cfg.MeasureInstr = 40_000
	res := RunMix("M0", cfg)
	if len(res.Cores) != 16 {
		t.Fatalf("%d cores", len(res.Cores))
	}
	for i, c := range res.Cores {
		if c.Instructions < cfg.MeasureInstr {
			t.Fatalf("core %d ran %d instructions", i, c.Instructions)
		}
	}
	// The quick window leaves the 2MB shared LLC partly cold; just check
	// compression is doing real work relative to occupancy.
	if res.CompRatio <= 0.3 {
		t.Fatalf("mix compression ratio %.2f", res.CompRatio)
	}
}

func TestSharedLLCSeesAllCores(t *testing.T) {
	cfg := quickCfg(Uncompressed)
	cfg.WarmupInstr = 10_000
	cfg.MeasureInstr = 20_000
	res := RunMix("S2", cfg) // 16 x gcc
	if res.LLCStats.Reads == 0 {
		t.Fatal("no LLC traffic")
	}
	// Every core must have run its window and contributed LLC traffic;
	// per-core IPC stays physical.
	for i, c := range res.Cores {
		if c.Instructions < cfg.MeasureInstr {
			t.Fatalf("core %d ran %d instructions", i, c.Instructions)
		}
		if c.IPC <= 0 || c.IPC > 1 {
			t.Fatalf("core %d IPC %g", i, c.IPC)
		}
	}
}

func TestInclusiveModeFillsOnStoreMiss(t *testing.T) {
	skipIfShort(t)
	cfg := quickCfg(MORC)
	cfg.Inclusive = true
	inc := RunSingle("lbm", cfg)
	cfg.Inclusive = false
	non := RunSingle("lbm", cfg)
	// Inclusive inserts fetched lines on store misses too, so it must
	// perform at least as many fills.
	if inc.LLCStats.Fills <= non.LLCStats.Fills {
		t.Fatalf("inclusive fills %d <= non-inclusive %d", inc.LLCStats.Fills, non.LLCStats.Fills)
	}
}

func TestEnergyDRAMTracksTraffic(t *testing.T) {
	skipIfShort(t)
	morc := RunSingle("gcc", quickCfg(MORC))
	unc := RunSingle("gcc", quickCfg(Uncompressed))
	if morc.Energy.DRAMJ >= unc.Energy.DRAMJ {
		t.Fatalf("MORC DRAM energy %g not below uncompressed %g", morc.Energy.DRAMJ, unc.Energy.DRAMJ)
	}
	if morc.Energy.DecompressJ <= unc.Energy.DecompressJ {
		t.Fatal("MORC charged no decompression energy")
	}
}

// TestSchemeEnergyRows holds every scheme to Table 7's charges: an LLC
// that counts compressions is charged its engine's energy for them and
// for what it decompresses, an LLC that counts none is charged no
// engine, and Uncompressed8x's eight slices of data store burn eight
// times Uncompressed's LLC static power.
func TestSchemeEnergyRows(t *testing.T) {
	llcStaticW := map[Scheme]float64{}
	for _, s := range AllSchemes() {
		cfg := DefaultConfig()
		cfg.Scheme = s
		cfg.WarmupInstr, cfg.MeasureInstr = 20_000, 40_000
		res := RunSingle("gcc", cfg)
		st, e := res.LLCStats, res.Energy
		if st.Compressions > 0 {
			if e.CompressJ <= 0 || st.Decompressed > 0 && e.DecompressJ <= 0 {
				t.Errorf("%v: %d compressions and %d bytes decompressed cost %g J and %g J, want an engine's energy",
					s, st.Compressions, st.Decompressed, e.CompressJ, e.DecompressJ)
			}
		} else if e.CompressJ != 0 || e.DecompressJ != 0 {
			t.Errorf("%v: no compressions, but charged %g J and %g J of engine energy", s, e.CompressJ, e.DecompressJ)
		}
		seconds := float64(res.CompletionCycles) / cfg.ClockHz
		llcStaticW[s] = e.StaticJ/seconds/float64(cfg.Cores) - energy.TableDefaults().L1StaticW
	}
	if got, want := llcStaticW[Uncompressed8x], 8*llcStaticW[Uncompressed]; math.Abs(got-want) > 1e-9*want {
		t.Errorf("Uncompressed8x's LLC burns %g W, want eight times Uncompressed's: %g W", got, want)
	}
}

func TestBytesConservation(t *testing.T) {
	skipIfShort(t)
	// Every off-chip byte is a 64B line transfer: reads = LLC misses that
	// went to memory, writes = LLC write-backs to memory.
	res := RunSingle("omnetpp", quickCfg(MORC))
	if res.MemBytes%64 != 0 {
		t.Fatalf("off-chip bytes %d not line-granular", res.MemBytes)
	}
	if res.MemBytes == 0 {
		t.Fatal("no off-chip traffic for omnetpp")
	}
}

func TestMixedWorkloadProfilesResolve(t *testing.T) {
	for _, mix := range trace.MixNames() {
		progs := trace.MultiProgramMixes()[mix]
		if len(trace.MixPrograms(progs)) != 16 {
			t.Fatalf("%s: bad program list", mix)
		}
	}
}

// TestValidateCeilings admits a 16-core system with every size and
// phase at its ceiling, and refuses each one past it with an error that
// names the field, an LLCBytesPerCore whose product with Cores would
// overflow among them.
func TestValidateCeilings(t *testing.T) {
	at := DefaultConfig()
	at.Cores, at.LLCBytesPerCore, at.L1Bytes = 16, MaxLLCBytes/16, MaxL1Bytes
	at.WarmupInstr, at.MeasureInstr = MaxPhaseInstr, MaxPhaseInstr
	if err := at.Validate(); err != nil {
		t.Fatalf("a configuration at every ceiling: %v", err)
	}
	for _, tc := range []struct {
		field string
		over  func(*Config)
	}{
		{"Cores", func(c *Config) { c.Cores = MaxCores + 1 }},
		{"L1Bytes", func(c *Config) { c.L1Bytes = 2 * MaxL1Bytes }},
		{"LLCBytesPerCore", func(c *Config) { c.LLCBytesPerCore = 2 * MaxLLCBytes / 16 }},
		{"LLCBytesPerCore", func(c *Config) { c.LLCBytesPerCore = 1 << 62 }},
		{"WarmupInstr", func(c *Config) { c.WarmupInstr = MaxPhaseInstr + 1 }},
		{"MeasureInstr", func(c *Config) { c.MeasureInstr = MaxPhaseInstr + 1 }},
	} {
		cfg := at
		tc.over(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s past its ceiling: Validate = %v, want an error naming it", tc.field, err)
		}
	}
}
