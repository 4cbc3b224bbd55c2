package main

import (
	"context"
	"testing"
	"time"

	"morc/internal/sim"
	"morc/internal/trace"
)

// The traced replay re-drives sim.System's loop over the layers' public
// APIs; it is only a valid attribution if it simulates exactly what the
// simulator does.
func TestReplayMatchesSimulator(t *testing.T) {
	programs := []string{"gcc", "mcf", "lbm", "bzip2"}
	var calls [numLayers]int64
	for _, scheme := range sim.AllSchemes() {
		for _, cores := range []int{1, 4} {
			cfg := sim.DefaultConfig()
			cfg.Scheme, cfg.Cores = scheme, cores
			cfg.WarmupInstr, cfg.MeasureInstr, cfg.SampleEvery = 4_000, 12_000, 3_000
			want := resultCounters(sim.New(cfg, trace.MixPrograms(programs[:cores])).Run())

			clk := newSpanClock()
			rp, err := newReplay(cfg, trace.MixPrograms(programs[:cores]), clk, newLineLog(16))
			if err != nil {
				t.Fatal(err)
			}
			if got := rp.run(); !got.equal(want) {
				t.Errorf("%v, %d cores: replay counters\n%+v\nsimulator\n%+v", scheme, cores, got, want)
			}
			for l := range calls {
				calls[l] += clk.calls[l]
			}
		}
	}
	for l, n := range calls {
		if n == 0 {
			t.Errorf("layer %s was never called; the test budgets are too small to cover it", layerNames[l])
		}
	}
}

func TestReplayRejectsOptionsItDoesNotModel(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.LinkCompression = true
	if _, err := newReplay(cfg, []trace.Profile{trace.MustGet("gcc")}, newSpanClock(), newLineLog(1)); err == nil {
		t.Fatal("newReplay accepted link compression")
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	w, err := findWorkload("morc-reads")
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed int64) string {
		rr := simRep(context.Background(), w.Sims(seed, budget{smoke: true}), time.Now())
		if rr.Failed > 0 {
			t.Fatalf("seed %d: %v", seed, rr.Errors)
		}
		return rr.Digest
	}
	a, b, c := digest(1), digest(1), digest(2)
	if a != b {
		t.Errorf("seed 1 gave digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a)
	}
}

func TestCodecReplayCoversTheStream(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.MORC
	cfg.WarmupInstr, cfg.MeasureInstr = 5_000, 20_000
	clk := newSpanClock()
	lines := newLineLog(256)
	rp, err := newReplay(cfg, []trace.Profile{trace.MustGet("gcc")}, clk, lines)
	if err != nil {
		t.Fatal(err)
	}
	rp.run()
	if len(lines.addrs) != 256 || len(lines.data) != 256*64 {
		t.Fatalf("recorded %d lines (%d bytes), want the 256-line cap", len(lines.addrs), len(lines.data))
	}
	rep := codecReplay(lines, coreConfig(cfg), clk)
	if rep.AppendCalls < 256 || rep.CommitCalls != 256 || rep.TrialCalls != 256 {
		t.Errorf("codec replay: %d appends, %d commits, %d trials for 256 lines", rep.AppendCalls, rep.CommitCalls, rep.TrialCalls)
	}
	if rep.AllocSamples < 16 || rep.Allocs == 0 {
		t.Errorf("codec replay sampled %d trials with %d allocations, want every 16th of 256", rep.AllocSamples, rep.Allocs)
	}
}
