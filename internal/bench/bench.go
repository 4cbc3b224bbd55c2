// Package bench standardizes the BENCH_*.json files committed at the
// repo root so the performance trajectory is tracked per PR in one
// schema. A Report is deliberately timestamp-free: regenerating it on
// the same machine with the same code produces byte-identical JSON, so
// a diff in review always means the numbers (or the harness) changed.
//
// Machine context is limited to num_cpu — enough to interpret scaling
// results honestly (a 2× claim measured on one CPU is visibly suspect)
// without dragging in hostnames or clock readings.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Schema is the version tag every report carries; bump it when the
// shape changes incompatibly.
const Schema = "morc-bench/1"

// Entry is one measured configuration: a benchmark leg, a topology, a
// codec — anything with a name and numbers.
type Entry struct {
	// Name identifies the leg, e.g. "sequential" or "cluster-2peer".
	Name string `json:"name"`
	// Config records the knobs the leg ran under (workload, scheme,
	// instruction budget, worker counts, ...). Values must be plain JSON
	// scalars so encoding stays deterministic.
	Config map[string]any `json:"config,omitempty"`
	// NsPerOp is the benchmark's wall time per operation, when the leg
	// is an ns/op-style measurement.
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// AllocsPerOp is the -benchmem allocation count, when measured.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics carries every other number the leg produced (throughput,
	// latency percentiles, speedups) keyed by metric name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Note explains anything a reader needs to interpret the numbers.
	Note string `json:"note,omitempty"`
}

// Report is one BENCH_*.json file.
type Report struct {
	// SchemaVersion is always Schema.
	SchemaVersion string `json:"schema"`
	// Name identifies the benchmark, e.g. "hot-path-allocs".
	Name string `json:"name"`
	// NumCPU is runtime.NumCPU() on the measuring host — the one piece
	// of machine context scaling claims cannot be read without.
	NumCPU int `json:"num_cpu"`
	// Entries are the measured legs, in measurement order.
	Entries []Entry `json:"entries"`
	// Note is report-wide context (e.g. the single-CPU caveat).
	Note string `json:"note,omitempty"`
}

// New returns an empty report for the given benchmark name.
func New(name string, numCPU int) *Report {
	return &Report{SchemaVersion: Schema, Name: name, NumCPU: numCPU}
}

// Add appends one entry.
func (r *Report) Add(e Entry) { r.Entries = append(r.Entries, e) }

// Validate checks the report conforms to the schema: version and name
// set, at least one uniquely-named entry, and every number finite (NaN
// or Inf would either fail to encode or poison downstream comparisons).
func (r *Report) Validate() error {
	if r.SchemaVersion != Schema {
		return fmt.Errorf("schema %q, want %q", r.SchemaVersion, Schema)
	}
	if r.Name == "" {
		return fmt.Errorf("report has no name")
	}
	if r.NumCPU <= 0 {
		return fmt.Errorf("num_cpu %d, want positive", r.NumCPU)
	}
	if len(r.Entries) == 0 {
		return fmt.Errorf("report has no entries")
	}
	seen := map[string]bool{}
	for i, e := range r.Entries {
		if e.Name == "" {
			return fmt.Errorf("entry %d has no name", i)
		}
		if seen[e.Name] {
			return fmt.Errorf("duplicate entry name %q", e.Name)
		}
		seen[e.Name] = true
		if !finite(e.NsPerOp) || !finite(e.AllocsPerOp) {
			return fmt.Errorf("entry %q carries a non-finite measurement", e.Name)
		}
		for k, v := range e.Metrics {
			if !finite(v) {
				return fmt.Errorf("entry %q metric %q is non-finite", e.Name, k)
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Encode renders the report as indented JSON with a trailing newline.
// encoding/json sorts map keys, so the bytes are a pure function of the
// report's values.
func (r *Report) Encode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile validates and writes the report to path.
func (r *Report) WriteFile(path string) error {
	b, err := r.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads and validates a committed report.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
