// Package dettaint_core_sample is a morclint fixture: dettaint's source rule
// applied to sampling-shaped code — the interval profiling and
// clustering of a representative-interval sampler. The bugs here are the
// ones that would make a sampled run non-reproducible: global-rand
// k-means seeding, wall-clock profiling cost, and signature assembly in
// map iteration order.
package dettaint_core_sample

import (
	"math/rand"
	"sort"
	"time"
)

type signature struct {
	footprint float64
	missRate  float64
}

// seedCenters picks k-means++ centers with the global generator: two
// identical sampling runs would cluster differently.
func seedCenters(sigs []signature, k int) []signature {
	centers := make([]signature, 0, k)
	for len(centers) < k {
		centers = append(centers, sigs[rand.Intn(len(sigs))]) // want "rand.Intn uses math/rand's global generator"
	}
	return centers
}

// seedCentersSeeded is the allowed idiom: a seeded local generator.
func seedCentersSeeded(sigs []signature, k int, seed int64) []signature {
	r := rand.New(rand.NewSource(seed))
	centers := make([]signature, 0, k)
	for len(centers) < k {
		centers = append(centers, sigs[r.Intn(len(sigs))])
	}
	return centers
}

// profileCost stamps the pass with wall-clock time, which would leak
// host speed into a supposedly pure profile.
func profileCost() int64 {
	return time.Now().UnixNano() // want "time.Now in the deterministic core"
}

// footprintSignature derives a signature from the interval's footprint
// map in iteration order: the float accumulation makes the result
// depend on which lines happen to come first.
func footprintSignature(footprint map[uint64]float64) signature {
	var s signature
	for _, reuse := range footprint {
		s.footprint += reuse // want "writes to state reached through s in map iteration order"
	}
	return s
}

// footprintLines collects the interval's distinct lines without sorting
// them, so the encoded signature blob differs run to run.
func footprintLines(footprint map[uint64]struct{}) []uint64 {
	var lines []uint64
	for addr := range footprint {
		lines = append(lines, addr) // want "appends to lines in map iteration order and never sorts it"
	}
	return lines
}

// footprintLinesSorted is the allowed collect-then-sort idiom, plus the
// commuting integer count.
func footprintLinesSorted(footprint map[uint64]struct{}) ([]uint64, int) {
	var lines []uint64
	distinct := 0
	for addr := range footprint {
		lines = append(lines, addr)
		distinct++
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines, distinct
}
