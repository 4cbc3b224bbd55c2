//go:build !amd64

package rng

// lanes is false: Trials runs every draw in the Go loop.
var lanes = false

// scan16 is never called where lanes is false.
func scan16(s, t11 uint64, blocks int) int { panic("rng: no vector kernel on this platform") }
