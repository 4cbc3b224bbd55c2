// Package hotallocgrowthignore is a morclint fixture: an allowlisted
// false positive of hotalloc's growth rule (the append is capped by a
// reset).
package hotallocgrowthignore

type ring struct {
	samples []int
}

type system struct {
	r ring
}

func (s *system) Run(n int) {
	for i := 0; i < n; i++ {
		s.r.samples = append(s.r.samples, i) //morclint:ignore hotalloc capped by the reset below, never exceeds 1k entries
		if len(s.r.samples) > 1024 {
			s.r.samples = s.r.samples[:0]
		}
	}
}
