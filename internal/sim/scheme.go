package sim

import (
	"fmt"
	"strings"

	"morc/internal/energy"
)

// schemeRow is what the simulator knows of one LLC organization apart
// from its constructor: its paper name, the Table 7 engine it charges
// for compressions and decompressions (none when it compresses
// nothing), and how many per-core slices of data store it holds, which
// sizes both its capacity and its static power.
type schemeRow struct {
	name   string
	engine energy.Engine
	slices int
}

// schemes holds one row per Scheme, in declaration order.
var schemes = [...]schemeRow{
	Uncompressed:   {"Uncompressed", energy.Engine{}, 1},
	Uncompressed8x: {"Uncompressed8x", energy.Engine{}, 8},
	Adaptive:       {"Adaptive", energy.CPack, 1},
	Decoupled:      {"Decoupled", energy.CPack, 1},
	SC2:            {"SC2", energy.SC2, 1},
	MORC:           {"MORC", energy.LBE, 1},
	MORCMerged:     {"MORCMerged", energy.LBE, 1},
	Skewed:         {"Skewed", energy.CPack, 1},
}

// row returns s's row of schemes, or the zero row (no name, no slices)
// for a value outside the table.
func (s Scheme) row() schemeRow {
	if s < 0 || int(s) >= len(schemes) {
		return schemeRow{}
	}
	return schemes[s]
}

// compresses reports whether the scheme's LLC compresses lines: it
// charges a compression engine.
func (s Scheme) compresses() bool { return s.row().engine != energy.Engine{} }

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	if name := s.row().name; name != "" {
		return name
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// AllSchemes returns every LLC organization the simulator implements, in
// declaration order. Front-ends (morcsim, morcbench, morcd) enumerate and
// parse schemes through this list so it can never drift between them.
func AllSchemes() []Scheme {
	all := make([]Scheme, len(schemes))
	for i := range all {
		all[i] = Scheme(i)
	}
	return all
}

// ParseScheme resolves a scheme name (case-insensitive) to its Scheme.
func ParseScheme(s string) (Scheme, error) {
	for _, sch := range AllSchemes() {
		if strings.EqualFold(sch.String(), s) {
			return sch, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", s)
}

// MarshalText encodes the scheme as its paper name, so JSON requests and
// results carry "MORC" rather than an opaque integer.
func (s Scheme) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// UnmarshalText parses a scheme name (case-insensitive).
func (s *Scheme) UnmarshalText(b []byte) error {
	sch, err := ParseScheme(string(b))
	if err != nil {
		return err
	}
	*s = sch
	return nil
}
