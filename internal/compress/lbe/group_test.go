package lbe

import (
	"testing"

	"morc/internal/rng"
)

// groupRun drives a Group through commits to random slots and slot
// recycles, checking before every commit that the group's trial sizes
// equal each slot encoder's own TrialBits (the per-log loop the group
// replaces), and the index after every step.
type groupRun struct {
	t testing.TB
	g *Group
}

// insert sizes b in every slot, against the oracle, and commits it to
// slot pick (mod the slot count).
func (gr *groupRun) insert(b []byte, pick int) {
	t, g := gr.t, gr.g
	t.Helper()
	got := g.TrialBits(b)
	for s := range g.slots {
		if want := g.Encoder(s).TrialBits(b); got[s] != want {
			t.Fatalf("slot %d: group trial %d bits, its encoder's TrialBits %d", s, got[s], want)
		}
	}
	if err := g.Check(); err != nil {
		t.Fatalf("after a trial: %v", err)
	}
	s := pick % len(g.slots)
	want := got[s]
	if n := g.AppendCommit(s, b); n != want {
		t.Fatalf("slot %d: committed %d bits, the group trial sized %d", s, n, want)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("after a commit to slot %d: %v", s, err)
	}
}

// recycle releases slot s and hands its dictionaries to a fresh encoder,
// or, when self is set, back to its own encoder once reset, the way a
// MORC log reclaims itself.
func (gr *groupRun) recycle(s int, self bool) {
	t, g := gr.t, gr.g
	t.Helper()
	g.Release(s)
	if err := g.Check(); err != nil {
		t.Fatalf("after releasing slot %d: %v", s, err)
	}
	to := new(Encoder)
	if self {
		to = g.Encoder(s)
		to.Reset()
	}
	g.HandOff(s, to)
	if g.Encoder(s) != to || to.Closed() || to.Bits() != 0 {
		t.Fatalf("slot %d: HandOff did not install an open, empty encoder", s)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("after handing off slot %d: %v", s, err)
	}
}

// TestGroupMatchesPerEncoderTrials runs seeded commit and recycle
// streams through groups of 1, 3, 8 and 64 slots, under the default and
// the tiny (quickly full) configuration.
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
				gr := &groupRun{t: t, g: NewGroup(cfg, n)}
				for step := 0; step < 400; step++ {
					if r.Bool(0.05) {
						gr.recycle(r.Intn(n), r.Bool(0.5))
						continue
					}
					gr.insert(diffBlock(r, words, quads, chunks), r.Intn(n))
				}
			}
		}
	}
}

// TestGroupRefusesMisuse: a released slot blocks trials and commits
// until it is handed off, and only a released slot can be handed off.
func TestGroupRefusesMisuse(t *testing.T) {
	b := make([]byte, 64)
	b[5] = 7
	g := NewGroup(tinyConfig, 2)
	g.AppendCommit(1, b)
	for name, f := range map[string]func(){
		"HandOff without Release": func() { g.HandOff(1, new(Encoder)) },
		"a slot count of 0":       func() { NewGroup(tinyConfig, 0) },
		"a slot count of 65":      func() { NewGroup(tinyConfig, MaxGroupSlots+1) },
		"a bad configuration":     func() { NewGroup(Config{}, 2) },
		"a 16-byte block":         func() { g.TrialBits(b[:16]) },
	} {
		if !panics(f) {
			t.Errorf("%s did not panic", name)
		}
	}
	g.Release(1)
	for name, f := range map[string]func(){
		"TrialBits":          func() { g.TrialBits(b) },
		"AppendCommit":       func() { g.AppendCommit(1, b) },
		"a second Release":   func() { g.Release(1) },
		"HandOff to an open": func() { g.HandOff(1, NewEncoder(tinyConfig)) },
	} {
		if !panics(f) {
			t.Errorf("%s with a released slot did not panic", name)
		}
	}
	g.HandOff(1, new(Encoder))
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if got := g.TrialBits(b); got[0] != got[1] {
		t.Fatalf("two empty slots sized a block at %d and %d bits", got[0], got[1])
	}
}
