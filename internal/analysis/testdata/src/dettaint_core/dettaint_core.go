// Package dettaint_core is a morclint fixture: true positives (and
// allowed idioms) for dettaint's source rule, which applies here because
// dettaint_core* fixtures stand in for the deterministic-core packages.
// Each `want` comment is a regexp the self-test matches against the
// diagnostic reported on that line.
package dettaint_core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func globalRand() int {
	return rand.Intn(8) // want "rand.Intn uses math/rand's global generator"
}

func globalFloat() float64 {
	return rand.Float64() // want "rand.Float64 uses math/rand's global generator"
}

func seededRand() int {
	r := rand.New(rand.NewSource(1)) // constructors and seeded generators are fine
	return r.Intn(8)
}

func wallClock() int64 {
	return time.Now().UnixNano() // want "time.Now in the deterministic core"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since in the deterministic core"
}

func commutingWrites(m map[string]int, other map[string]int) int {
	total := 0
	for k, v := range m {
		total += v     // integer accumulation commutes: fine
		m[k] = v + 1   // writing the ranged map itself: fine
		other[k] = v   // keyed by the loop variable: fine
		delete(m, k)   // fine
	}
	return total
}

func keyedFloatAccumulation(maps []map[string]float64) map[string]float64 {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, m := range maps {
		for k, v := range m {
			sums[k] += v // float accumulation keyed by the loop variable: fine
			counts[k]++  // fine
		}
	}
	for k := range sums {
		sums[k] /= float64(counts[k]) // writing the ranged map by its own key: fine
	}
	return sums
}

type record struct{ id int }

func drainIntoSlots(ch chan record, slots []record) {
	for r := range ch {
		slots[r.id] = r // channel receive order, but each record lands at its own index: fine
	}
}

func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // sorted below: fine
	}
	sort.Strings(keys)
	return keys
}

func collectNeverSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "appends to keys in map iteration order and never sorts it"
	}
	return keys
}

func lastWriterWins(m map[string]int) string {
	var last string
	for k := range m {
		last = k // want "assigns to last in map iteration order"
	}
	return last
}

func floatAccumulation(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "accumulates floating-point values into sum in map iteration order"
	}
	return sum
}

func arbitraryEntry(m map[string]int) string {
	for k := range m {
		return k // want "returns a value derived from map iteration order"
	}
	return ""
}

func printsEntries(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want "emits formatted output in map iteration order"
	}
}

func sendsEntries(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want "sends on a channel in map iteration order"
	}
}

type counter struct{ n int }

func (c *counter) bump() { c.n++ }

func mutatesOuterState(m map[string]int, c *counter) {
	for range m {
		c.bump() // want "calls c.bump .* in map iteration order"
	}
}

func sortedBeforeCollecting(m map[string]int) []string {
	var keys []string
	sort.Strings(keys) // the sort must follow the collecting loop
	for k := range m {
		keys = append(keys, k) // want "appends to keys in map iteration order and never sorts it"
	}
	return keys
}

func randReference() func(int) int {
	f := rand.Intn // want "rand.Intn uses math/rand's global generator"
	return f
}

func untilDeadline(t time.Time) time.Duration {
	return time.Until(t) // want "time.Until in the deterministic core"
}

func discardedClock() {
	_ = time.Now() // want "time.Now in the deterministic core"
}

func rangeInCase(m map[string]int, mode int) string {
	var last string
	switch mode {
	case 1:
		for k := range m {
			last = k // want "assigns to last in map iteration order"
		}
	}
	return last
}

func labeledRange(m map[string]int) string {
	var last string
keys:
	for k := range m {
		last = k // want "assigns to last in map iteration order"
		continue keys
	}
	return last
}
