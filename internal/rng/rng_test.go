package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of Float64 = %g, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate %g, want ~0.25", frac)
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(21)
	f := a.Fork()
	// The fork must not replay the parent's stream.
	match := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == f.Uint64() {
			match++
		}
	}
	if match > 0 {
		t.Fatalf("fork replayed %d parent values", match)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(31)
	sum := 0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Geometric(0.2)
	}
	mean := float64(sum) / n
	if math.Abs(mean-5.0) > 0.2 {
		t.Fatalf("Geometric(0.2) mean %g, want ~5", mean)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := New(33)
	if got := r.Geometric(1.0); got != 1 {
		t.Fatalf("Geometric(1) = %d, want 1", got)
	}
	if got := r.Geometric(2.0); got != 1 {
		t.Fatalf("Geometric(2) = %d, want 1", got)
	}
}

func TestUniformityProperty(t *testing.T) {
	// Property: modular reduction stays in range for arbitrary n.
	f := func(seed uint64, n uint32) bool {
		if n == 0 {
			return true
		}
		r := New(seed)
		v := r.Uint64n(uint64(n))
		return v < uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// boolOracle and geometricOracle are the float formulas Bool and
// Geometric used before they moved onto integer thresholds. The
// threshold forms must reproduce them draw for draw.
func boolOracle(r *RNG, p float64) bool { return r.Float64() < p }

func geometricOracle(r *RNG, p float64) int {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	n := 1
	for !boolOracle(r, p) {
		n++
		if n >= 1<<20 {
			break
		}
	}
	return n
}

// drawProbs spans the synthesis probabilities, an inexact binary
// fraction (1/3), exact ones, the largest p below 1, and p >= 1.
var drawProbs = []float64{0.002, 0.01, 0.05, 1.0 / 96, 1.0 / 3, 0.5, 0.75, 1 - 0x1p-53, 1, 2}

func TestThresholdDrawsMatchFloatOracle(t *testing.T) {
	for _, p := range drawProbs {
		th := ThresholdOf(p)
		for seed := uint64(1); seed <= 4; seed++ {
			a, b := New(seed), New(seed)
			for i := 0; i < 2000; i++ {
				var got bool
				if i%2 == 0 {
					got = a.Bool(p)
				} else {
					got = a.Chance(th)
				}
				want := boolOracle(b, p)
				if got != want || a.state != b.state {
					t.Fatalf("p=%g seed %d draw %d: Bool %v state %#x, oracle %v state %#x",
						p, seed, i, got, a.state, want, b.state)
				}
			}
			for i := 0; i < 300; i++ {
				var got int
				if i%2 == 0 {
					got = a.Geometric(p)
				} else {
					got = a.Trials(th)
				}
				want := geometricOracle(b, p)
				if got != want || a.state != b.state {
					t.Fatalf("p=%g seed %d geometric %d: got %d state %#x, oracle %d state %#x",
						p, seed, i, got, a.state, want, b.state)
				}
			}
		}
	}
}

// TestTrialsCap runs into the 2^20 cap: the count and final state must
// be the oracle's, which stops after 2^20-1 failed draws.
func TestTrialsCap(t *testing.T) {
	for _, p := range []float64{1e-12, math.NaN()} {
		a, b := New(5), New(5)
		for i := 0; i < 3; i++ {
			got := a.Trials(ThresholdOf(p))
			var want int
			if p > 0 {
				want = geometricOracle(b, p)
			} else { // NaN: the oracle never succeeds and runs to the cap
				want = 1
				for !boolOracle(b, p) {
					if want++; want >= 1<<20 {
						break
					}
				}
			}
			if got != want || got != 1<<20 || a.state != b.state {
				t.Fatalf("p=%g call %d: got %d state %#x, oracle %d state %#x", p, i, got, a.state, want, b.state)
			}
		}
	}
}

func TestGeometricNonPositivePanics(t *testing.T) {
	for _, p := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%g) did not panic", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

func TestThresholdOf(t *testing.T) {
	cases := []struct {
		p    float64
		want Threshold
	}{
		{math.NaN(), 0}, {math.Inf(-1), 0}, {-1, 0}, {0, 0},
		{0x1p-1074, 1}, {0x1p-53, 1}, {0.5, 1 << 52}, {1 - 0x1p-53, 1<<53 - 1},
		{1, always}, {2, always}, {math.Inf(1), always},
	}
	for _, c := range cases {
		if got := ThresholdOf(c.p); got != c.want {
			t.Errorf("ThresholdOf(%g) = %d, want %d", c.p, got, c.want)
		}
	}
}

// TestChanceThresholdBoundary steers the next draw's top 53 bits to t-1
// and to t, the two values either side of the threshold, and checks
// Chance against the float oracle on both.
func TestChanceThresholdBoundary(t *testing.T) {
	for _, p := range []float64{0.002, 1.0 / 3, 0.5, 0.75, 1 - 0x1p-53} {
		th := uint64(ThresholdOf(p))
		for _, k := range []uint64{th - 1, th} {
			for _, low := range []uint64{0, 1<<11 - 1} { // the 11 bits the draw drops
				u := k<<11 | low
				a, b := New(stateBefore(u)), New(stateBefore(u))
				if b.Uint64() != u {
					t.Fatalf("stateBefore(%#x) does not produce it", u)
				}
				b.Seed(stateBefore(u))
				got, want := a.Chance(ThresholdOf(p)), boolOracle(b, p)
				if got != want || got != (k < th) {
					t.Errorf("p=%g top bits %d (threshold %d): Chance %v, oracle %v", p, k, th, got, want)
				}
			}
		}
	}
}

// stateBefore returns the generator state whose next Uint64 is u:
// splitmix64's output function is a bijection, undone step by step.
func stateBefore(u uint64) uint64 {
	u ^= u>>31 ^ u>>62
	u *= mulInverse(0x94d049bb133111eb)
	u ^= u>>27 ^ u>>54
	u *= mulInverse(0xbf58476d1ce4e5b9)
	u ^= u>>30 ^ u>>60
	return u - gamma
}

// mulInverse is the inverse of odd c modulo 2^64 (Newton's iteration
// doubles the correct low bits each step, from 3).
func mulInverse(c uint64) uint64 {
	inv := c
	for i := 0; i < 6; i++ {
		inv *= 2 - c*inv
	}
	return inv
}
