package lbe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"morc/internal/rng"
)

// tinyConfig freezes every dictionary within a few lines, so differential
// runs spend most of their time against full dictionaries.
var tinyConfig = Config{Dict32: 4, Dict64: 2, Dict128: 2, Dict256: 2}

// diffRun drives an Encoder and the reference encoder through the same
// interleaving of trials, drops, commits and resets, failing on the
// first divergence in trial sizes, committed streams, symbol counts or
// dictionaries, and checking that the Encoder's stream decodes back to
// what was committed.
type diffRun struct {
	t         testing.TB
	cfg       Config
	enc       *Encoder
	ref       *refEncoder
	committed [][]byte    // since the last reset
	seen      SymbolStats // symbols committed over the whole run
}

func newDiffRun(t testing.TB, cfg Config) *diffRun {
	return &diffRun{t: t, cfg: cfg, enc: NewEncoder(cfg), ref: newRefEncoder(cfg)}
}

// step performs the action op selects on block b, with alt as the
// competing candidate where the action needs one.
func (d *diffRun) step(op byte, b, alt []byte) {
	t := d.t
	t.Helper()
	switch op % 8 {
	case 0, 1: // trial and drop, through both trial entry points
		if got, want := d.enc.TrialBits(b), d.ref.Append(b).Bits(); got != want {
			t.Fatalf("TrialBits=%d, reference trial=%d", got, want)
		}
		if got, want := d.enc.Append(b).Bits(), d.ref.Append(b).Bits(); got != want {
			t.Fatalf("Pending.Bits=%d, reference trial=%d", got, want)
		}
	case 2, 3: // one-shot commit
		if got, want := d.enc.AppendCommit(b), d.ref.AppendCommit(b); got != want {
			t.Fatalf("AppendCommit=%d bits, reference %d", got, want)
		}
		d.committed = append(d.committed, b)
	case 4: // trial, then commit the trial
		p, rp := d.enc.Append(b), d.ref.Append(b)
		if p.Bits() != rp.Bits() {
			t.Fatalf("Pending.Bits=%d, reference %d", p.Bits(), rp.Bits())
		}
		d.enc.Commit(p)
		d.ref.Commit(rp)
		d.committed = append(d.committed, b)
	case 5: // two candidates sized against the same state; one commits
		p1, p2 := d.enc.Append(b), d.enc.Append(alt)
		r1, r2 := d.ref.Append(b), d.ref.Append(alt)
		if p1.Bits() != r1.Bits() || p2.Bits() != r2.Bits() {
			t.Fatalf("candidate sizes %d/%d, reference %d/%d", p1.Bits(), p2.Bits(), r1.Bits(), r2.Bits())
		}
		win, loser, rwin, kept := p1, p2, r1, b
		if op&8 != 0 {
			win, loser, rwin, kept = p2, p1, r2, alt
		}
		d.enc.Commit(win)
		d.ref.Commit(rwin)
		d.committed = append(d.committed, kept)
		if !panics(func() { d.enc.Commit(loser) }) {
			t.Fatal("losing candidate committed after the winner")
		}
	case 6: // size a block that is dropped, then commit another
		if got, want := d.enc.TrialBits(alt), d.ref.Append(alt).Bits(); got != want {
			t.Fatalf("TrialBits=%d, reference trial=%d", got, want)
		}
		if got, want := d.enc.AppendCommit(b), d.ref.AppendCommit(b); got != want {
			t.Fatalf("AppendCommit=%d bits, reference %d", got, want)
		}
		d.committed = append(d.committed, b)
	default: // occasionally recycle the log
		if op&0x38 != 0 {
			d.step(2, b, alt)
			return
		}
		d.finish()
		d.enc.Reset()
		d.ref = newRefEncoder(d.cfg)
		d.committed = nil
	}
	d.compare()
}

func (d *diffRun) compare() {
	t := d.t
	t.Helper()
	if d.enc.Bits() != d.ref.Bits() || !bytes.Equal(d.enc.Bytes(), d.ref.Bytes()) {
		t.Fatalf("committed streams differ: %d bits %x, reference %d bits %x",
			d.enc.Bits(), d.enc.Bytes(), d.ref.Bits(), d.ref.Bytes())
	}
	if d.enc.Stats() != d.ref.Stats() {
		t.Fatalf("symbol stats %v, reference %v", d.enc.Stats(), d.ref.Stats())
	}
	if d.enc.InputBytes() != d.ref.InputBytes() {
		t.Fatalf("InputBytes %d, reference %d", d.enc.InputBytes(), d.ref.InputBytes())
	}
	if err := checkTables(&d.enc.dicts); err != nil {
		t.Fatal(err)
	}
	for lvl, want := range d.ref.dicts {
		got := entryBytes(&d.enc.dicts, lvl)
		if len(got) != len(want.entries) {
			t.Fatalf("level %d: %d dictionary entries, reference %d", lvl, len(got), len(want.entries))
		}
		for i := range got {
			if string(got[i]) != want.entries[i] {
				t.Fatalf("level %d entry %d: %x, reference %x", lvl, i, got[i], want.entries[i])
			}
		}
	}
}

// finish checks that the stream decodes to the committed blocks.
func (d *diffRun) finish() {
	t := d.t
	t.Helper()
	d.seen.Add(d.enc.Stats())
	dec := NewDecoder(d.cfg, d.enc.Bytes(), d.enc.Bits())
	for i, want := range d.committed {
		got, err := dec.Next(len(want))
		if err != nil {
			t.Fatalf("decode block %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d round-trip mismatch:\n in  % x\n out % x", i, want, got)
		}
	}
	if dec.BitPos() != d.enc.Bits() {
		t.Fatalf("decoder stopped at bit %d of %d", dec.BitPos(), d.enc.Bits())
	}
	if err := checkTables(&dec.dicts); err != nil {
		t.Fatalf("decoder: %v", err)
	}
}

// checkTables verifies each dictionary's probe table against its
// entries: every entry sits at the slot it recorded, no other slot is
// occupied, and a lookup of every entry's value finds that entry.
func checkTables(d *dicts) error {
	for lvl, err := range []error{checkTable(&d.d32), checkTable(&d.d64), checkTable(&d.d128), checkTable(&d.d256)} {
		if err != nil {
			return fmt.Errorf("level %d: %w", lvl, err)
		}
	}
	for lvl, n := range d.lens() {
		for j := 0; j < n; j++ {
			var c chunk
			d.load(&c, lvl, 0, j)
			if idx, ok := d.lookup(&c, lvl, 0); !ok || idx != j {
				return fmt.Errorf("level %d: looking up entry %d finds %d (found %v)", lvl, j, idx, ok)
			}
		}
	}
	return nil
}

func checkTable[K comparable](d *dict[K]) error {
	if len(d.slots) != len(d.entries) {
		return fmt.Errorf("%d recorded slots for %d entries", len(d.slots), len(d.entries))
	}
	occupied := 0
	for _, s := range d.table {
		if s.idx != 0 {
			occupied++
		}
	}
	if occupied != len(d.entries) {
		return fmt.Errorf("%d occupied slots for %d entries", occupied, len(d.entries))
	}
	for j, k := range d.entries {
		if s := d.table[d.slots[j]]; s.idx != int32(j+1) || s.key != k {
			return fmt.Errorf("entry %d is not at its recorded slot %d (slot holds entry %d)", j, d.slots[j], s.idx-1)
		}
	}
	return nil
}

// entryBytes renders a level's dictionary entries as the bytes they
// stand for, the reference dictionary's key format.
func entryBytes(d *dicts, lvl int) [][]byte {
	out := make([][]byte, d.lens()[lvl])
	for i := range out {
		var c chunk
		d.load(&c, lvl, 0, i)
		var b [32]byte
		c.store(b[:])
		out[i] = b[:4<<lvl]
	}
	return out
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// diffChunk draws a 32-byte chunk whose words mix zeros, repeats from
// small 32- and 64-bit pools, narrow values and fresh random words, so
// every symbol and granularity occurs.
func diffChunk(r *rng.RNG, words []uint32, quads []uint64) []byte {
	c := make([]byte, 32)
	for q := 0; q < 32; q += 8 {
		if r.Bool(0.15) {
			binary.LittleEndian.PutUint64(c[q:], quads[r.Intn(len(quads))])
			continue
		}
		for w := q; w < q+8; w += 4 {
			switch {
			case r.Bool(0.3): // zero
			case r.Bool(0.35):
				binary.LittleEndian.PutUint32(c[w:], words[r.Intn(len(words))])
			case r.Bool(0.4):
				binary.LittleEndian.PutUint32(c[w:], uint32(r.Intn(1<<17)))
			default:
				binary.LittleEndian.PutUint32(c[w:], r.Uint32())
			}
		}
	}
	return c
}

// diffBlock draws a block of 1-4 chunks, some all-zero and a quarter of
// them repeats from a chunk pool.
func diffBlock(r *rng.RNG, words []uint32, quads []uint64, chunks [][]byte) []byte {
	b := make([]byte, 0, 128)
	for n := 1 + r.Intn(4); n > 0; n-- {
		switch {
		case r.Bool(0.1):
			b = append(b, make([]byte, 32)...)
		case r.Bool(0.25):
			b = append(b, chunks[r.Intn(len(chunks))]...)
		default:
			b = append(b, diffChunk(r, words, quads)...)
		}
	}
	return b
}

// TestDifferentialAgainstReference runs seeded random interleavings of
// trials, drops, commits and resets through the Encoder and the
// reference encoder under the default and a tiny (quickly frozen)
// configuration.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), tinyConfig} {
		var seen SymbolStats
		for seed := uint64(1); seed <= 12; seed++ {
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
			d := newDiffRun(t, cfg)
			for n := 0; n < 300; n++ {
				d.step(byte(r.Intn(256)), diffBlock(r, words, quads, chunks), diffBlock(r, words, quads, chunks))
			}
			d.finish()
			seen.Add(d.seen)
		}
		for s := Symbol(0); s < numSymbols; s++ {
			if seen[s] == 0 {
				t.Errorf("%+v: no %v symbol committed; the generator misses a case", cfg, s)
			}
		}
	}
}
