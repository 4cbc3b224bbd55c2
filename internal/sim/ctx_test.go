package sim

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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
// on a sampling configuration RunCtx rejects before touching any core).
func TestRunPanicsOnRunCtxError(t *testing.T) {
	cfg := boundaryCfg(Uncompressed)
	cfg.Sampling = SamplingConfig{IntervalInstr: 10_000, MaxClusters: -1}
	s, err := NewSingle("gcc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic on RunCtx error")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "MaxClusters") {
			t.Fatalf("panic value %v, want message naming MaxClusters", r)
		}
	}()
	s.Run()
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
