package sim

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"morc/internal/trace"
)

// TestRunCtxCancelMidMeasurement cancels a run once the measurement
// window has started and checks that it stops promptly, reports
// context.Canceled, and leaves the System's counters internally
// consistent (no core past its target, measurement snapshots taken).
func TestRunCtxCancelMidMeasurement(t *testing.T) {
	skipIfShort(t)
	cfg := quickCfg(MORC)
	cfg.MeasureInstr = 50_000_000 // far more than we will let it run

	s, err := NewSingle("gcc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled atomic.Bool
	s.OnProgress = func(done, total uint64) {
		if want := uint64(cfg.WarmupInstr + cfg.MeasureInstr); total != want {
			t.Errorf("progress total = %d, want %d", total, want)
		}
		// Cancel once measurement is under way.
		if done > cfg.WarmupInstr+200_000 && !cancelled.Swap(true) {
			cancel()
		}
	}
	defer cancel()

	start := time.Now()
	res, err := s.RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
	if res.Cores != nil || res.CompRatio != 0 {
		t.Errorf("cancelled RunCtx returned non-zero Result: %+v", res)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("cancellation took %v", d)
	}

	c := s.cores[0]
	if c.instr >= c.target {
		t.Errorf("core ran to completion (instr %d >= target %d) despite cancel", c.instr, c.target)
	}
	if c.instr <= cfg.WarmupInstr {
		t.Errorf("cancel fired before measurement: instr %d <= warmup %d", c.instr, cfg.WarmupInstr)
	}
	if !s.measuring {
		t.Error("system never entered the measurement window")
	}
	if c.startInst < cfg.WarmupInstr {
		t.Errorf("measurement snapshot taken early: startInst %d < warmup %d", c.startInst, cfg.WarmupInstr)
	}
	// The interrupted run must not perturb later runs: a fresh system with
	// the normal budget must match an independent reference exactly.
	fresh := quickCfg(MORC)
	got := RunSingle("gcc", fresh)
	want := RunSingle("gcc", fresh)
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Errorf("post-cancel run diverged from reference:\n%s\n%s", gb, wb)
	}
}

// TestRunCtxCancelledBeforeStart: an already-cancelled context stops the
// run before any work happens.
func TestRunCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSingleCtx(ctx, "gcc", quickCfg(MORC))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestRunPanicsOnRunCtxError covers sim.Run's panic path: Run promises
// an infallible signature and must panic loudly when RunCtx fails (here
// on a thread count RunCtx rejects before touching any core; New builds
// the system, since nothing it constructs depends on Threads).
func TestRunPanicsOnRunCtxError(t *testing.T) {
	cfg := boundaryCfg(Uncompressed)
	cfg.Cores = 1
	cfg.Threads = 0
	s := New(cfg, []trace.Profile{trace.MustGet("gcc")})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic on RunCtx error")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "Threads") {
			t.Fatalf("panic value %v, want message naming Threads", r)
		}
	}()
	s.Run()
}

// badConfigs are overrides Config.Validate rejects. Each of the first
// four once panicked in mem.NewController or stats.NewSampler; a
// negative LLCLatency wrapped through uint64 into an LLC faster than
// free, and zero Threads reported throughput below IPC.
var badConfigs = []struct {
	name   string
	mutate func(*Config)
}{
	{"BWPerCore 0", func(c *Config) { c.BWPerCore = 0 }},
	{"BWPerCore -1", func(c *Config) { c.BWPerCore = -1 }},
	{"ClockHz 0", func(c *Config) { c.ClockHz = 0 }},
	{"SampleEvery 0", func(c *Config) { c.SampleEvery = 0 }},
	{"Threads 0", func(c *Config) { c.Threads = 0 }},
	{"LLCLatency -5", func(c *Config) { c.LLCLatency = -5 }},
	{"L1Ways 3", func(c *Config) { c.L1Ways = 3 }},
	{"LLC of 0 bytes", func(c *Config) { c.LLCBytesPerCore = 0 }},
}

// TestRunCtxRejectsBadConfig: RunSingleCtx, RunMixCtx and RunCtx return
// Config.Validate's error for every bad configuration, without a panic
// and before simulating anything.
func TestRunCtxRejectsBadConfig(t *testing.T) {
	for _, bc := range badConfigs {
		t.Run(bc.name, func(t *testing.T) {
			cfg := boundaryCfg(MORC)
			bc.mutate(&cfg)
			if cfg.Validate() == nil {
				t.Fatal("Validate accepted the configuration")
			}
			if _, err := RunSingleCtx(context.Background(), "gcc", cfg); err == nil {
				t.Error("RunSingleCtx returned no error")
			}
			if _, err := RunMixCtx(context.Background(), "M0", cfg); err == nil {
				t.Error("RunMixCtx returned no error")
			}
		})
	}
	// RunCtx checks a system New could build.
	cfg := boundaryCfg(MORC)
	cfg.Cores = 1
	cfg.LLCLatency = -5
	s := New(cfg, []trace.Profile{trace.MustGet("gcc")})
	if _, err := s.RunCtx(context.Background()); err == nil || !strings.Contains(err.Error(), "LLCLatency") {
		t.Errorf("RunCtx error = %v, want one naming LLCLatency", err)
	}
	if s.cores[0].instr != 0 {
		t.Errorf("RunCtx simulated %d instructions of a rejected configuration", s.cores[0].instr)
	}
}

// TestRunCtxMatchesRun: the context plumbing must not change results.
func TestRunCtxMatchesRun(t *testing.T) {
	cfg := quickCfg(SC2)
	got, err := RunSingleCtx(context.Background(), "omnetpp", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := RunSingle("omnetpp", cfg)
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Errorf("RunSingleCtx != RunSingle:\n%s\n%s", gb, wb)
	}
}

func TestRunSingleCtxUnknownWorkload(t *testing.T) {
	if _, err := RunSingleCtx(context.Background(), "no-such-workload", quickCfg(MORC)); err == nil {
		t.Fatal("expected error for unknown workload")
	}
	if _, err := RunMixCtx(context.Background(), "no-such-mix", quickCfg(MORC)); err == nil {
		t.Fatal("expected error for unknown mix")
	}
}

func TestParseScheme(t *testing.T) {
	for _, sch := range AllSchemes() {
		got, err := ParseScheme(sch.String())
		if err != nil || got != sch {
			t.Errorf("ParseScheme(%q) = %v, %v", sch.String(), got, err)
		}
		got, err = ParseScheme(lower(sch.String()))
		if err != nil || got != sch {
			t.Errorf("ParseScheme(%q) = %v, %v", lower(sch.String()), got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("ParseScheme(bogus) succeeded")
	}
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if 'A' <= b[i] && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

func TestSchemeJSONRoundTrip(t *testing.T) {
	for _, sch := range AllSchemes() {
		b, err := json.Marshal(sch)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != `"`+sch.String()+`"` {
			t.Errorf("marshal %v = %s", sch, b)
		}
		var back Scheme
		if err := json.Unmarshal(b, &back); err != nil || back != sch {
			t.Errorf("unmarshal %s = %v, %v", b, back, err)
		}
	}
	var s Scheme
	if err := json.Unmarshal([]byte(`"bogus"`), &s); err == nil {
		t.Error("unmarshal bogus scheme succeeded")
	}
}
