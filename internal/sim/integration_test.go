package sim

import (
	"testing"

	"morc/internal/core"
	"morc/internal/trace"
)

// TestAccessStreamSchemeIndependent: the workload (instructions, refs,
// store mix) must be identical regardless of the LLC organization — the
// generator and value model may not be perturbed by caching decisions.
func TestAccessStreamSchemeIndependent(t *testing.T) {
	skipIfShort(t)
	cfg := quickCfg(Uncompressed)
	var refRefs, refInstr uint64
	for i, sch := range []Scheme{Uncompressed, Adaptive, SC2, MORC} {
		cfg.Scheme = sch
		res := RunSingle("omnetpp", cfg)
		c := res.Cores[0]
		if i == 0 {
			refRefs, refInstr = c.Refs, c.Instructions
			continue
		}
		if c.Refs != refRefs || c.Instructions != refInstr {
			t.Fatalf("%v: refs/instr %d/%d differ from baseline %d/%d",
				sch, c.Refs, c.Instructions, refRefs, refInstr)
		}
	}
}

// TestMORCInvariantsAfterSimulation: after a full simulation with
// evictions, write-backs and recycling, the MORC structural invariants
// (stream decodability, LMT consistency) must hold.
func TestMORCInvariantsAfterSimulation(t *testing.T) {
	skipIfShort(t)
	for _, wl := range []string{"gcc", "mcf", "lbm"} {
		cfg := quickCfg(MORC)
		cfg.WarmupInstr = 100_000
		cfg.MeasureInstr = 150_000
		s := mustNewSingle(t, wl, cfg)
		s.Run()
		if err := s.LLC().(*core.Cache).CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
	}
}

// TestMemoryValueConsistency: whatever the scheme, the memory image at
// the end of identical runs must agree for lines the caches have written
// back — conservation of data through the hierarchy. We check a weaker,
// scheme-local property: re-reading any line through the hierarchy
// yields the last value the core wrote (caught by core/baseline golden
// tests) and the sim moves whole 64B lines only.
func TestTrafficIsLineGranular(t *testing.T) {
	skipIfShort(t)
	for _, sch := range []Scheme{Uncompressed, MORC} {
		res := RunSingle("soplex", quickCfg(sch))
		if res.MemBytes%64 != 0 {
			t.Fatalf("%v: %d bytes not line-granular", sch, res.MemBytes)
		}
	}
}

// TestCGMTNeverBelowSingleThread: hiding latency can only help.
func TestCGMTNeverBelowSingleThread(t *testing.T) {
	skipIfShort(t)
	for _, wl := range []string{"gcc", "mcf", "povray", "lbm"} {
		res := RunSingle(wl, quickCfg(MORC))
		if res.Throughput < res.IPC-1e-12 {
			t.Fatalf("%s: throughput %.5f below IPC %.5f", wl, res.Throughput, res.IPC)
		}
	}
}

// TestUncompressed8xOutperformsBaseline: an 8x-capacity cache must not
// lose to the 1x cache on miss rate.
func TestUncompressed8xOutperformsBaseline(t *testing.T) {
	small := RunSingle("omnetpp", quickCfg(Uncompressed))
	big := RunSingle("omnetpp", quickCfg(Uncompressed8x))
	if big.LLCStats.HitRate() < small.LLCStats.HitRate() {
		t.Fatalf("8x cache hit rate %.3f below 1x %.3f",
			big.LLCStats.HitRate(), small.LLCStats.HitRate())
	}
}

// TestMORCConfigOverride: sensitivity-study plumbing must reach the
// cache (log size changes the number of logs).
func TestMORCConfigOverride(t *testing.T) {
	cfg := quickCfg(MORC)
	mc := core.DefaultConfig(cfg.LLCBytesPerCore)
	mc.LogBytes = 1024
	cfg.MORCConfig = &mc
	s := mustNewSingle(t, "gcc", cfg)
	s.Run()
	if got := s.LLC().(*core.Cache).Config().LogBytes; got != 1024 {
		t.Fatalf("override ignored: LogBytes %d", got)
	}
}

// TestMixDeterminism: multi-program runs replay exactly.
func TestMixDeterminism(t *testing.T) {
	skipIfShort(t)
	cfg := quickCfg(MORC)
	cfg.WarmupInstr = 20_000
	cfg.MeasureInstr = 30_000
	a := RunMix("M1", cfg)
	b := RunMix("M1", cfg)
	if a.CompRatio != b.CompRatio || a.MemBytes != b.MemBytes ||
		a.CompletionCycles != b.CompletionCycles {
		t.Fatal("mix simulation not deterministic")
	}
}

// TestBandwidthMonotonicity: more bandwidth never slows a workload down.
func TestBandwidthMonotonicity(t *testing.T) {
	var prev float64
	for i, bw := range []float64{12.5e6, 100e6, 1600e6} {
		cfg := quickCfg(Uncompressed)
		cfg.BWPerCore = bw
		res := RunSingle("mcf", cfg)
		if i > 0 && res.IPC < prev {
			t.Fatalf("IPC fell from %.5f to %.5f when bandwidth rose", prev, res.IPC)
		}
		prev = res.IPC
	}
}

// TestWorkloadsAreDistinct: different profiles must not accidentally
// alias to identical streams (a regression guard on profile hashing).
func TestWorkloadsAreDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, w := range trace.SingleProgramWorkloads() {
		p := trace.MustGet(w)
		if prev, dup := seen[p.Seed]; dup {
			t.Fatalf("workloads %s and %s share seed", prev, w)
		}
		seen[p.Seed] = w
	}
}
