package sim

import "testing"

// progressLog records an OnProgress callback sequence for comparison.
type progressLog struct {
	events [][2]uint64
}

func (p *progressLog) hook(done, total uint64) {
	p.events = append(p.events, [2]uint64{done, total})
}

// boundaryCfg is a small configuration that still crosses several
// sampler and progress boundaries.
func boundaryCfg(s Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = s
	cfg.WarmupInstr = 30_000
	cfg.MeasureInstr = 60_000
	cfg.SampleEvery = 20_000
	return cfg
}

// TestClampProgress unit-tests the overshoot clamp progress reports
// through: cores can overshoot their per-core target by one access's
// instruction count, and the callback must never exceed the total.
func TestClampProgress(t *testing.T) {
	cases := []struct{ instr, total, want uint64 }{
		{0, 100, 0},
		{99, 100, 99},
		{100, 100, 100},
		{101, 100, 100}, // the overshoot case
		{^uint64(0), 100, 100},
	}
	for _, c := range cases {
		if got := clampProgress(c.instr, c.total); got != c.want {
			t.Errorf("clampProgress(%d, %d) = %d, want %d", c.instr, c.total, got, c.want)
		}
	}
}

// TestOnProgressContract asserts the behavioral consequences of the
// clamp on a real run: progress is nondecreasing, never exceeds the
// total, and lands exactly on (total, total).
func TestOnProgressContract(t *testing.T) {
	cfg := boundaryCfg(MORC)
	s, err := NewSingle("gcc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &progressLog{}
	s.OnProgress = p.hook
	s.Run()
	total := uint64(cfg.WarmupInstr + cfg.MeasureInstr)
	if len(p.events) == 0 {
		t.Fatal("no progress events")
	}
	var prev uint64
	for i, ev := range p.events {
		if ev[1] != total {
			t.Fatalf("event %d: total = %d, want %d", i, ev[1], total)
		}
		if ev[0] > total {
			t.Fatalf("event %d: done %d exceeds total %d (clamp failed)", i, ev[0], total)
		}
		if ev[0] < prev {
			t.Fatalf("event %d: done %d went backwards from %d", i, ev[0], prev)
		}
		prev = ev[0]
	}
	if last := p.events[len(p.events)-1]; last[0] != total {
		t.Fatalf("final progress %d, want exactly %d", last[0], total)
	}
}
