package lbe

import (
	"testing"

	"morc/internal/rng"
)

// groupRun drives a Group through kept trials and slot resets next to
// its oracle: an Encoder per slot, fed exactly the blocks the slot
// keeps and reset with it, which is the encode-on-commit kept trials
// replace. Before every Keep it checks the group's trial sizes against
// each oracle's TrialBits; after it, the kept bits and symbols against
// what the oracle's AppendCommit coded and the slot's dictionaries
// against the oracle's; and the index after every step.
type groupRun struct {
	t      testing.TB
	g      *Group
	oracle []*Encoder
}

func newGroupRun(t testing.TB, cfg Config, n int) *groupRun {
	gr := &groupRun{t: t, g: NewGroup(cfg, n)}
	for i := 0; i < n; i++ {
		gr.oracle = append(gr.oracle, NewEncoder(cfg))
	}
	return gr
}

// insert sizes b in every slot, or in slot pick alone when single is
// set, and keeps it in slot pick (mod the slot count).
func (gr *groupRun) insert(b []byte, pick int, single bool) {
	t, g := gr.t, gr.g
	t.Helper()
	s := pick % len(g.slots)
	var want int
	if single {
		want = g.TrialSlot(s, b)
		if o := gr.oracle[s].TrialBits(b); want != o {
			t.Fatalf("slot %d: one-slot trial %d bits, its oracle's TrialBits %d", s, want, o)
		}
	} else {
		got := g.TrialBits(b)
		for i, o := range gr.oracle {
			if w := o.TrialBits(b); got[i] != w {
				t.Fatalf("slot %d: group trial %d bits, its oracle's TrialBits %d", i, got[i], w)
			}
		}
		want = got[s]
	}
	if err := g.Check(); err != nil {
		t.Fatalf("after a trial: %v", err)
	}
	o := gr.oracle[s]
	before := o.Stats()
	n, syms := g.Keep(s)
	if coded := o.AppendCommit(b); n != want || coded != want {
		t.Fatalf("slot %d: kept %d bits of a trial that sized %d; its oracle coded %d", s, n, want, coded)
	}
	coded := o.Stats()
	for i := range coded {
		coded[i] -= before[i]
	}
	if syms != coded {
		t.Fatalf("slot %d: kept symbols %v, its oracle coded %v", s, syms, coded)
	}
	if err := g.CheckSlot(s, o); err != nil {
		t.Fatalf("after a Keep: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("after a Keep in slot %d: %v", s, err)
	}
}

// reset empties slot s and its oracle, the way a MORC slot passes to
// the log that replaces the one it closes.
func (gr *groupRun) reset(s int) {
	t, g := gr.t, gr.g
	t.Helper()
	g.Reset(s)
	gr.oracle[s].Reset()
	if err := g.CheckSlot(s, gr.oracle[s]); err != nil {
		t.Fatalf("after a Reset: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("after resetting slot %d: %v", s, err)
	}
}

// TestGroupMatchesPerEncoderTrials runs seeded streams of kept trials,
// one-slot trials and resets through groups of 1, 3, 8 and 64 slots,
// under the default and the tiny (quickly full) configuration.
func TestGroupMatchesPerEncoderTrials(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), tinyConfig} {
		for _, n := range []int{1, 3, 8, 64} {
			for seed := uint64(1); seed <= 4; seed++ {
				r := rng.New(seed)
				words := make([]uint32, 24)
				for i := range words {
					words[i] = r.Uint32()
				}
				quads := make([]uint64, 8)
				for i := range quads {
					quads[i] = r.Uint64()
				}
				chunks := make([][]byte, 6)
				for i := range chunks {
					chunks[i] = diffChunk(r, words, quads)
				}
				gr := newGroupRun(t, cfg, n)
				for step := 0; step < 400; step++ {
					if r.Bool(0.05) {
						gr.reset(r.Intn(n))
						continue
					}
					gr.insert(diffBlock(r, words, quads, chunks), r.Intn(n), r.Bool(0.1))
				}
			}
		}
	}
}

// TestGroupRefusesMisuse: Keep needs a trial of its slot that no Keep
// or Reset has ended, and NewGroup and the trials refuse bad arguments.
func TestGroupRefusesMisuse(t *testing.T) {
	b := make([]byte, 64)
	b[5] = 7
	g := NewGroup(tinyConfig, 2)
	for name, f := range map[string]func(){
		"Keep before any trial":       func() { g.Keep(0) },
		"a slot count of 0":           func() { NewGroup(tinyConfig, 0) },
		"a slot count of 65":          func() { NewGroup(tinyConfig, MaxGroupSlots+1) },
		"a bad configuration":         func() { NewGroup(Config{}, 2) },
		"a 16-byte block":             func() { g.TrialBits(b[:16]) },
		"a 16-byte block in one slot": func() { g.TrialSlot(0, b[:16]) },
	} {
		if !panics(f) {
			t.Errorf("%s did not panic", name)
		}
	}
	g.TrialBits(b)
	g.Keep(1)
	if !panics(func() { g.Keep(1) }) {
		t.Error("a second Keep did not panic")
	}
	if !panics(func() { g.Keep(0) }) {
		t.Error("a Keep after another slot kept the trial did not panic")
	}
	g.TrialBits(b)
	g.Reset(0)
	if !panics(func() { g.Keep(1) }) {
		t.Error("a Keep after a Reset did not panic")
	}
	g.TrialSlot(0, b)
	if !panics(func() { g.Keep(1) }) {
		t.Error("a Keep of a slot the trial did not size did not panic")
	}
	g.Keep(0)
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if got := g.TrialBits(b); got[0] != got[1] {
		t.Fatalf("two slots that kept the same block size it again at %d and %d bits", got[0], got[1])
	}
}
