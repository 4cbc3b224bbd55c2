package lbe

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"

	"morc/internal/rng"
)

// groupRun drives a Group through trials, kept or abandoned, and slot
// resets next to its oracle: an Encoder per slot, fed exactly the
// blocks the slot keeps and reset with it, which is the
// encode-on-commit kept trials replace. After every trial it checks the
// group's sizes against each oracle's TrialBits and the index, which
// the trial must leave as it found it; after a Keep, the kept bits and
// symbols against what the oracle's AppendCommit coded and the slot's
// dictionaries against the oracle's; and the index after every step.
type groupRun struct {
	t      testing.TB
	g      *Group
	oracle []*Encoder

	// The trial a keep may keep: its block, the slots it sized and
	// their sizes; nil after a keep, a reset or an abandon.
	pending *pendingTrial
}

type pendingTrial struct {
	b     []byte
	sized uint64
	bits  []int
}

func newGroupRun(t testing.TB, cfg Config, n int) *groupRun {
	gr := &groupRun{t: t, g: NewGroup(cfg, n)}
	for i := 0; i < n; i++ {
		gr.oracle = append(gr.oracle, NewEncoder(cfg))
	}
	return gr
}

// trial sizes b in every slot, or in slot pick alone (mod the slot
// count) when single is set, and leaves it pending.
func (gr *groupRun) trial(b []byte, pick int, single bool) {
	t, g := gr.t, gr.g
	t.Helper()
	p := &pendingTrial{b: b, bits: make([]int, len(g.slots))}
	if single {
		s := pick % len(g.slots)
		p.sized, p.bits[s] = 1<<s, g.TrialSlot(s, b)
		if o := gr.oracle[s].TrialBits(b); p.bits[s] != o {
			t.Fatalf("slot %d: one-slot trial %d bits, its oracle's TrialBits %d", s, p.bits[s], o)
		}
	} else {
		p.sized = ^uint64(0) >> (MaxGroupSlots - len(g.slots))
		copy(p.bits, g.TrialBits(b))
		for i, o := range gr.oracle {
			if w := o.TrialBits(b); p.bits[i] != w {
				t.Fatalf("slot %d: group trial %d bits, its oracle's TrialBits %d", i, p.bits[i], w)
			}
		}
	}
	gr.pending = p
	if err := g.Check(); err != nil {
		t.Fatalf("after a trial: %v", err)
	}
}

// keep keeps the pending trial in slot pick (mod the slot count), or in
// the one slot it sized; without a pending trial it does nothing.
func (gr *groupRun) keep(pick int) {
	t, g, p := gr.t, gr.g, gr.pending
	t.Helper()
	if p == nil {
		return
	}
	gr.pending = nil
	s := pick % len(g.slots)
	if p.sized&(1<<s) == 0 {
		s = bits.TrailingZeros64(p.sized)
	}
	o := gr.oracle[s]
	before := o.Stats()
	n, syms := g.Keep(s)
	if coded := o.AppendCommit(p.b); n != p.bits[s] || coded != n {
		t.Fatalf("slot %d: kept %d bits of a trial that sized %d; its oracle coded %d", s, n, p.bits[s], coded)
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

// insert sizes b in every slot, or in slot pick alone when single is
// set, and keeps it in slot pick (mod the slot count).
func (gr *groupRun) insert(b []byte, pick int, single bool) {
	gr.t.Helper()
	gr.trial(b, pick, single)
	gr.keep(pick)
}

// abandon leaves the pending trial to no slot, as MORC does when no
// active log has room; the next trial or Reset ends it in the group.
func (gr *groupRun) abandon() { gr.pending = nil }

// reset empties slot s and its oracle, the way a MORC slot passes to
// the log that replaces the one it closes.
func (gr *groupRun) reset(s int) {
	t, g := gr.t, gr.g
	t.Helper()
	gr.pending = nil
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
// one-slot trials, abandoned trials and resets through groups of 1, 3,
// 8 and 64 slots, under the default and the tiny (quickly full)
// configuration.
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
					switch {
					case r.Bool(0.05):
						gr.reset(r.Intn(n))
					case r.Bool(0.1):
						gr.trial(diffBlock(r, words, quads, chunks), r.Intn(n), r.Bool(0.3))
						gr.abandon()
					default:
						gr.insert(diffBlock(r, words, quads, chunks), r.Intn(n), r.Bool(0.1))
					}
				}
			}
		}
	}
}

// TestKeepReAddsOnSharedProbePath builds a trial whose new values
// share a probe path. Slot 0's 32-bit dictionary is full of a and b;
// slot 1 is empty. A two-chunk block's first chunk holds the 64-bit
// values v1 = (c, d) and then v2 = (b, a), chosen so both have one home
// in the 64-bit index. Its post-chunk allocation adds v1 for slot 1
// alone (slot 0 cannot insert c and d, so it does not know them) and
// then v2 for slot 0 alone (slot 1's dictionary filled up with c and
// d), so v2 goes one past v1 on its probe path. The rollback must empty
// both and leave the index as it was, and when slot 0 keeps the trial,
// v2 must go in at its home, where a probe finds it, not at the table
// slot the trial logged. Random streams rarely build such a pair in the
// sparse index.
func TestKeepReAddsOnSharedProbePath(t *testing.T) {
	cfg := Config{Dict32: 2, Dict64: 4, Dict128: 4, Dict256: 4}
	const a, b = 1, 2
	v2 := uint64(b) | uint64(a)<<32
	seed := make([]byte, 32)
	binary.LittleEndian.PutUint32(seed[0:], a)
	binary.LittleEndian.PutUint32(seed[4:], b)

	gr := newGroupRun(t, cfg, 2)
	g := gr.g
	gr.insert(seed, 0, true)
	if got := g.slots[0].d32; len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("slot 0's 32-bit dictionary %v, want [%d %d]", got, a, b)
	}
	// Find a v1 whose home is v2's, where the index has two empty slots.
	wrap := len(g.x64.table) - 1
	home := func(v uint64) int { return int(hash64(v) >> g.x64.shift) }
	h := home(v2)
	var v1 uint64
	for c := uint32(3); ; c++ {
		v1 = uint64(c) | uint64(c+1)<<32
		if home(v1) == h && g.x64.table[h].mask == 0 && g.x64.table[(h+1)&wrap].mask == 0 {
			break
		}
	}
	blk := make([]byte, 64)
	binary.LittleEndian.PutUint64(blk[0:], v1)
	binary.LittleEndian.PutUint64(blk[8:], v2)

	before := append([]indexSlot[uint64](nil), g.x64.table...)
	gr.trial(blk, 0, false)
	var logged []undoRec
	for _, u := range g.undo {
		if u.lvl == lvl64 {
			logged = append(logged, u)
		}
	}
	if len(logged) != 2 || int(logged[0].at) != h || logged[0].took != 2 || int(logged[1].at) != (h+1)&wrap || logged[1].took != 1 {
		t.Fatalf("the trial's 64-bit changes %+v; want v1 at index slot %d for slot 1, then v2 at %d for slot 0", logged, h, (h+1)&wrap)
	}
	for at, e := range g.x64.table {
		if e.mask != before[at].mask {
			t.Fatalf("the trial left index slot %d at mask %#x, it was %#x", at, e.mask, before[at].mask)
		}
	}
	gr.keep(0)
	if e := g.x64.table[h]; e.key != v2 || e.mask != 1 {
		t.Fatalf("after the Keep, index slot %d holds %#x for %#x; want v2 %#x for slot 0", h, e.key, e.mask, v2)
	}
}

// FuzzGroup drives a group of 1 to 8 slots through the ops the fuzz
// data picks (a trial, a one-slot trial, a keep, a reset, an abandon)
// next to its oracles, under the default or the tiny configuration.
// Each trial's block takes one byte per 32-bit word, drawn from zeros,
// narrow values and a pool of 16 wide words, so values repeat across
// blocks and slots.
func FuzzGroup(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0x13, 0, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 2, 1, 0, 9, 0, 0x80, 0x81, 0x82, 0x83, 0x40, 0x41, 0x90, 0x91})
	f.Add(bytes.Repeat([]byte{1, 5, 0xc0, 0xc1, 0x20, 0x21, 0xc2, 0xc3, 0xc4, 0xc5, 2, 6, 4, 3, 7}, 6))
	r := rng.New(1)
	var pool [16]uint32
	for i := range pool {
		pool[i] = r.Uint32()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := DefaultConfig()
		if data[0]&8 != 0 {
			cfg = tinyConfig
		}
		n := 1 + int(data[0]&7)
		gr := newGroupRun(t, cfg, n)
		// next returns the next byte of data, 0 once it runs out.
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			c := data[0]
			data = data[1:]
			return c
		}
		block := func() []byte {
			blk := make([]byte, 32*(1+int(next()%4)))
			for w := 0; w < len(blk); w += 4 {
				switch c := next(); {
				case c < 0x40: // zero
				case c < 0x80:
					binary.LittleEndian.PutUint32(blk[w:], uint32(c)<<(c%24))
				default:
					binary.LittleEndian.PutUint32(blk[w:], pool[c%16])
				}
			}
			return blk
		}
		next()
		for steps := 0; len(data) > 0 && steps < 256; steps++ {
			switch op, pick := next()%5, int(next()); op {
			case 0:
				gr.trial(block(), pick, false)
			case 1:
				gr.trial(block(), pick, true)
			case 2:
				gr.keep(pick)
			case 3:
				gr.reset(pick % n)
			default:
				gr.abandon()
			}
		}
	})
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
