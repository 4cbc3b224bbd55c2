// Package hotalloc_growth is a morclint fixture for hotalloc's growth
// rule: unbounded appends inside the per-instruction simulation loop,
// next to the bounded idioms the rule must accept.
package hotalloc_growth

type stats struct {
	lats []int
}

type system struct {
	st   stats
	tick int
}

func (s *system) Run(n int) []int {
	var local []int
	for i := 0; i < n; i++ {
		s.step(i)
		local = append(local, i) // value-typed local: per-call and bounded
	}
	return local
}

func (s *system) step(i int) {
	s.st.lats = append(s.st.lats, i) // want "append grows s.st.lats inside the per-instruction simulation loop"
	record(&s.st, i)
	observe(i)
	drain(s, []int{i})
	s.tick++
}

// record is reachable from Run via step, so its append is hot-loop
// growth even though the function itself looks innocent.
func record(out *stats, v int) {
	out.lats = append(out.lats, v) // want "append grows out.lats inside the per-instruction simulation loop"
}

// hist is package-level state: its growth outlives every call.
var hist stats

func observe(v int) {
	hist.lats = append(hist.lats, v) // want "append grows hist.lats inside the per-instruction simulation loop"
}

// drain is reachable from step; the function literal it passes on
// appends onto state reached through drain's pointer parameter.
func drain(s *system, xs []int) {
	apply(xs, func(v int) {
		s.st.lats = append(s.st.lats, v) // want "append grows s.st.lats inside the per-instruction simulation loop"
	})
}

func apply(xs []int, f func(int)) {
	for _, x := range xs {
		f(x)
	}
}

// setup is not reachable from any loop root; one-time appends are fine.
func setup(s *system) {
	s.st.lats = append(s.st.lats, 0)
}
