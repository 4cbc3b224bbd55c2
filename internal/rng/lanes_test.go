package rng

import (
	"fmt"
	"testing"
)

// goLoop is Trials on the Go loop alone: the reference the lane path
// must match, and the only path on hosts without the kernel.
func goLoop(r *RNG, t Threshold) int {
	defer func(on bool) { lanes = on }(lanes)
	lanes = false
	return r.Trials(t)
}

// requireLanes skips a lane comparison where Trials never calls scan16.
func requireLanes(tb testing.TB) {
	tb.Helper()
	if !lanes {
		tb.Skip("no AVX-512F/DQ with OS-saved ZMM state on this host: Trials runs the Go loop alone, so there is no lane path to compare")
	}
}

// checkLanes runs Trials from state s against t on the lane path and on
// the Go loop, and fails unless both make the same count and leave the
// same state. It returns the count.
func checkLanes(tb testing.TB, s uint64, t Threshold) int {
	tb.Helper()
	a, b := New(s), New(s)
	got, want := a.Trials(t), goLoop(b, t)
	if got != want || a.state != b.state {
		tb.Fatalf("state %#x threshold %d: lanes count %d state %#x, Go loop count %d state %#x",
			s, t, got, a.state, want, b.state)
	}
	return got
}

// plant returns the state from which the k-th draw's value is u.
func plant(u uint64, k int) uint64 { return stateBefore(u) - uint64(k-1)*gamma }

// laneThresholds are the thresholds the lane path must agree on: the
// extremes (0 runs to the cap, always never draws), the value model's
// geometric ps, every two-place probability (which covers the catalog's
// MemRefFrac values) and the burst and object-length ps 1/96 … 1/2.
func laneThresholds() []Threshold {
	ts := []Threshold{0, 1, 2, always - 1, always,
		ThresholdOf(0.002), ThresholdOf(0.01), ThresholdOf(0.05)}
	for k := 1; k < 100; k++ {
		ts = append(ts, ThresholdOf(float64(k)/100))
	}
	for _, n := range []float64{96, 8, 6, 4, 3, 2} {
		ts = append(ts, ThresholdOf(1/n))
	}
	return ts
}

// laneStates are random states plus states whose lanes wrap past 2⁶⁴
// inside the first blocks, or start right at the wrap.
func laneStates() []uint64 {
	var g uint64 = gamma
	ss := []uint64{0, 1, ^uint64(0), -g, -g * (laneFrom + 1), -g * (laneFrom + 16), -g*(laneFrom+8) - 1}
	r := New(0x1a9e5)
	for i := 0; i < 24; i++ {
		ss = append(ss, r.Uint64())
	}
	return ss
}

func TestTrialsLanes(t *testing.T) {
	requireLanes(t)
	t.Logf("AVX-512 lanes: Trials hands runs past %d draws to scan16", laneFrom)

	t.Run("thresholds", func(t *testing.T) {
		for _, th := range laneThresholds() {
			states, calls := laneStates(), 64
			if th <= 2 { // every call runs to the cap: a few are enough
				states, calls = states[:4], 2
			}
			for _, s := range states {
				// A chain of calls, as synthesis makes them.
				a, b := New(s), New(s)
				for i := 0; i < calls; i++ {
					s0 := a.state
					got, want := a.Trials(th), goLoop(b, th)
					if got != want || a.state != b.state {
						t.Fatalf("threshold %d state %#x call %d: lanes %d state %#x, Go loop %d state %#x",
							th, s0, i, got, a.state, want, b.state)
					}
				}
			}
		}
	})

	// A success planted at every draw from 1 to 40 pins the handoff from
	// the Go loop's first laneFrom draws to scan16's blocks: the count
	// must be the planted draw, on both sides of each block boundary.
	t.Run("every-draw", func(t *testing.T) {
		for _, th := range []Threshold{1, 1 << 20, ThresholdOf(0.002)} {
			for k := 1; k <= 40; k++ {
				for _, u := range []uint64{0, uint64(th)<<11 - 1} { // the least and the largest success
					n := checkLanes(t, plant(u, k), th)
					if th == 1 && n != k {
						t.Fatalf("threshold 1, success planted at draw %d: count %d", k, n)
					}
				}
				// The smallest failing value: no success at draw k.
				if n := checkLanes(t, plant(uint64(th)<<11, k), th); n == k {
					t.Fatalf("threshold %d: value %#x at draw %d counted as a success", th, uint64(th)<<11, k)
				}
			}
		}
	})

	// Around the cap: a success in the last lane block or in the draws
	// after it is found; one at draw maxTrials is never drawn.
	t.Run("cap", func(t *testing.T) {
		for k := maxTrials - 40; k <= maxTrials; k++ {
			if n := checkLanes(t, plant(0, k), 1); n != k {
				t.Fatalf("success planted at draw %d: count %d", k, n)
			}
		}
		for _, s := range laneStates()[:8] {
			if n := checkLanes(t, s, 0); n != maxTrials {
				t.Fatalf("threshold 0 from %#x: count %d, want the cap %d", s, n, maxTrials)
			}
		}
	})
}

func FuzzTrials(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint32(0))
	f.Add(uint64(1), ^uint64(0), uint32(9))
	f.Add(uint64(0x61c8864680b583eb), uint64(0x41<<11|40), uint32(17))
	f.Add(uint64(0xdeadbeef), uint64(0x1234567<<11|20), uint32(maxTrials-1))
	f.Fuzz(func(t *testing.T, s, th uint64, at uint32) {
		requireLanes(t)
		// th's top 53 bits, shifted right by its low 6: thresholds from
		// 0 (runs to the cap) up to always-1, spread over their scale.
		thr := Threshold(th>>11) >> (th & 63)
		if k := int(at % maxTrials); k > 0 && thr > 0 {
			s = plant(uint64(thr)<<11-1, k) // a success no later than draw k
		}
		checkLanes(t, s, thr)
	})
}

func BenchmarkTrials(b *testing.B) {
	for _, p := range []float64{0.3, 0.05, 0.01, 0.002} {
		th := ThresholdOf(p)
		for _, path := range []string{"lanes", "loop"} {
			if path == "lanes" && !lanes {
				continue
			}
			b.Run(fmt.Sprintf("p=%g/%s", p, path), func(b *testing.B) {
				defer func(on bool) { lanes = on }(lanes)
				lanes = path == "lanes"
				r := New(1)
				draws := 0
				for i := 0; i < b.N; i++ {
					draws += r.Trials(th)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
			})
		}
	}
}
