// Package dettaint is a morclint fixture for the interprocedural taint
// pass: every exported function here is a root (stands in for the
// deterministic-core entry points), and the unexported helpers are the
// call-chain hops the pass must see through. Each `want` comment is a
// regexp matched against the diagnostic on that line.
package dettaint

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Result stands in for sim.Result: whatever flows into it must be
// reproducible run-to-run.
type Result struct {
	Elapsed int64
	Keys    []string
}

// Run is a root; the taint is introduced two hops down.
func Run(m map[string]int) Result {
	return Result{Elapsed: stamp(), Keys: unsortedKeys(m)}
}

// stamp obtains wall-clock time and returns it: the finding lands here,
// at the source-adjacent function, with the chain in the message.
func stamp() int64 {
	t := time.Now().UnixNano()
	return t // want "wall-clock value escapes via return"
}

// unsortedKeys lets map-iteration order escape.
func unsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys // want "map-iteration-order value escapes via return"
}

// SortedKeys launders iteration order with the collect-then-sort idiom:
// no finding.
func SortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CountKeys accumulates an integer over a map range: order-insensitive,
// no finding.
func CountKeys(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

type sink struct {
	last int64
}

var global = &sink{}

// Stamp is a root; record stores the wall clock through a pointer
// parameter into shared state.
func Stamp() { record(global) }

func record(s *sink) {
	s.last = time.Now().UnixNano() // want "wall-clock value is stored into shared state"
}

type gauge struct{ v float64 }

func (g *gauge) Set(v float64) { g.v = v }

// Observe hands a global-generator value to a mutating method of shared
// state: a setter is a store.
func Observe(g *gauge) {
	g.Set(rand.Float64()) // want "global math/rand value is passed to g.Set on shared state"
}

// Replay draws from a seeded local generator: deterministic, no finding.
func Replay() int {
	r := rand.New(rand.NewSource(7))
	return r.Intn(100)
}

// Measure reads the clock but the value dies locally: the taint rule
// stays quiet (the source rule flags the call itself, but only inside
// core packages, which this fixture does not stand in for).
func Measure() int {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < 0 {
		n++
	}
	return n
}

// Collect returns sync.Map.Range callback arguments, which arrive in
// nondeterministic order.
func Collect(sm *sync.Map) []string {
	var out []string
	sm.Range(func(k, v any) bool {
		out = append(out, k.(string))
		return true
	})
	return out // want "map-iteration-order value escapes via return"
}
