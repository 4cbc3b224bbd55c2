package lbe

import (
	"testing"

	"morc/internal/rng"
)

// TestSharedHomeSlotUndo drives one dictionary with keys whose home is
// the table's last slot or its first, so their probe chains run into
// each other and wrap around the end of the table. Random insertions and
// truncations, as trials make them, must leave the table consistent,
// find exactly the keys present, and undo along the chain newest first.
func TestSharedHomeSlotUndo(t *testing.T) {
	const capacity = 16
	d := newDict[uint32](capacity)
	last := len(d.table) - 1
	home := func(w uint32) int { return int(hash32(w) >> d.shift) }
	var pool []uint32
	for w, atLast, atFirst := uint32(1), 0, 0; atLast+atFirst < capacity+8; w++ {
		switch {
		case home(w) == last && atLast < 12:
			atLast++
		case home(w) == 0 && atFirst < 12:
			atFirst++
		default:
			continue
		}
		pool = append(pool, w)
	}

	r := rng.New(3)
	wrapped := false
	for step := 0; step < 2000; step++ {
		if n := len(d.entries); n > 0 && r.Bool(0.35) {
			d.truncate(r.Intn(n + 1))
		} else {
			w := pool[r.Intn(len(pool))]
			_, at, ok := d.find(w, hash32(w))
			if !ok && d.insertAt(w, at) && home(w) == last && at < last {
				wrapped = true
			}
		}
		if err := checkTable(&d); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, w := range pool {
			want := -1
			for j, e := range d.entries {
				if e == w {
					want = j
				}
			}
			idx, _, ok := d.find(w, hash32(w))
			if ok != (want >= 0) || ok && idx != want {
				t.Fatalf("step %d: find(%#x) = %d, %v; entry %d", step, w, idx, ok, want)
			}
		}
	}
	if !wrapped {
		t.Fatal("no probe chain wrapped around the end of the table")
	}
}
