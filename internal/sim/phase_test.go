package sim

import (
	"context"
	"testing"
)

// collectPhases runs a system with an OnPhase hook and returns the
// event sequence.
func collectPhases(t *testing.T, workload string, cfg Config) []PhaseEvent {
	t.Helper()
	s, err := NewSingle(workload, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var evs []PhaseEvent
	s.OnPhase = func(ev PhaseEvent) { evs = append(evs, ev) }
	if _, err := s.RunCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestFullRunPhases(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = MORC
	cfg.WarmupInstr = 30_000
	cfg.MeasureInstr = 60_000
	evs := collectPhases(t, "gcc", cfg)
	if len(evs) != 2 || evs[0].Phase != "warmup" || evs[1].Phase != "measure" {
		t.Fatalf("full-run phases = %+v, want warmup then measure", evs)
	}
	if evs[1].Instr < evs[0].Instr {
		t.Fatalf("phase instruction clock ran backwards: %+v", evs)
	}
}
