package sim

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to fall back to n: a
// joined helper has finished its work, but its goroutine may still be
// on its way out.
func settleGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after RunCtx returned, %d before", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAheadCancelJoinsHelper cancels a run with a helper mid-warmup and
// mid-measure: RunCtx returns ctx.Err() and leaves no goroutine behind.
func TestAheadCancelJoinsHelper(t *testing.T) {
	for _, phase := range []string{"warmup", "measure"} {
		t.Run(phase, func(t *testing.T) {
			cfg := quickCfg(MORC)
			cfg.WarmupInstr, cfg.MeasureInstr = 1_000_000, 1_000_000
			cancelAt := cfg.WarmupInstr / 2
			if phase == "measure" {
				cancelAt = cfg.WarmupInstr + cfg.MeasureInstr/2
			}
			before := runtime.NumGoroutine()
			s := mustNewSingle(t, "gcc", cfg)
			s.aheadMode = aheadOn
			var fills atomic.Int64
			s.onHelperFill = func(int) { fills.Add(1) }
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s.OnProgress = func(done, total uint64) {
				if done >= cancelAt {
					cancel()
				}
			}
			if _, err := s.RunCtx(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("RunCtx error = %v, want context.Canceled", err)
			}
			if s.measuring != (phase == "measure") {
				t.Errorf("cancelled in the %s phase, but measuring = %v", phase, s.measuring)
			}
			if fills.Load() == 0 {
				t.Error("the helper filled no batch before the cancel")
			}
			settleGoroutines(t, before)
		})
	}
}

// TestAheadHelperPanicReachesRunCtx panics on the helper goroutine and
// requires the same panic on RunCtx's, where exp's pool and morcd's
// workers recover a job's panic into a failed job, and no goroutine
// left behind.
func TestAheadHelperPanicReachesRunCtx(t *testing.T) {
	before := runtime.NumGoroutine()
	s := mustNewSingle(t, "gcc", quickCfg(MORC))
	s.aheadMode = aheadOn
	s.onHelperFill = func(int) { panic("front end broke") }
	var got any
	func() {
		defer func() { got = recover() }()
		s.RunCtx(context.Background())
		t.Error("RunCtx returned")
	}()
	if got != "front end broke" {
		t.Errorf("RunCtx panicked with %v, want the helper's panic", got)
	}
	settleGoroutines(t, before)
}

// TestAheadGates checks aheadFor's decision: no helper for an LLC that
// compresses nothing, none on a process whose simulations, helpers and
// Busy callers already use every CPU, and one for a compressed LLC
// with a CPU spare.
func TestAheadGates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		scheme Scheme
		busy   int64 // other simulations and helpers running
		want   bool
	}{
		{Uncompressed, 0, false},
		{Uncompressed8x, 0, false},
		{MORC, 0, true},
		{SC2, 0, true},
		{MORC, 1, false},
	} {
		s := mustNewSingle(t, "gcc", quickCfg(tc.scheme))
		running.Add(1 + tc.busy) // RunCtx counts its own simulation first
		h := s.aheadFor()
		if got := h != nil; got != tc.want {
			t.Errorf("%v with %d others running: helper %v, want %v", tc.scheme, tc.busy, got, tc.want)
		}
		if h != nil {
			h.join(s)
		}
		running.Add(-1 - tc.busy)
	}
	// Work that simulates without RunCtx holds a CPU through Busy.
	done := Busy()
	running.Add(1)
	if s := mustNewSingle(t, "gcc", quickCfg(MORC)); s.aheadFor() != nil {
		t.Error("MORC beside a Busy caller: helper true, want false")
	}
	running.Add(-1)
	done()
}

// TestRunCtxRunsOnce: a second RunCtx on one System is an error, after
// a completed run and after a cancelled one, whose front ends may have
// run ahead of where the back end stopped.
func TestRunCtxRunsOnce(t *testing.T) {
	s := mustNewSingle(t, "gcc", boundaryCfg(MORC))
	if _, err := s.RunCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunCtx(context.Background()); err == nil {
		t.Error("a second RunCtx after a completed run returned no error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s = mustNewSingle(t, "gcc", boundaryCfg(MORC))
	if _, err := s.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
	if _, err := s.RunCtx(context.Background()); err == nil {
		t.Error("a second RunCtx after a cancelled run returned no error")
	}
}
