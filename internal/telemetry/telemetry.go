// Package telemetry records how the simulated system behaves *over
// time*, not just on average. The paper's own analysis is longitudinal —
// compression ratio is sampled every 10M instructions (§5.1), Figure 14
// is a latency distribution, and the log-GC discussion is about bursts —
// but a single sim.Result collapses the whole measurement window into
// scalars. This package slices the window into fixed instruction-count
// epochs and snapshots counter deltas at each boundary, producing a
// compact Series that rides on sim.Result, serializes to JSON/NDJSON,
// and streams live over morcd's SSE endpoint.
//
// The design is scheme-agnostic: epochs carry the counters every LLC
// maintains (hits, fills, write-backs, bytes moved) plus an open-ended
// gauge map filled through the optional cache.Probed interface, which
// MORC, the baseline compressed caches, and the skewed cache implement
// with organization-specific gauges (log occupancy, invalid fraction,
// GC compactions, defragmentations, ...).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"morc/internal/cache"
	"morc/internal/mem"
)

// DefaultEvery is the paper's sampling grid: one epoch per 10M retired
// instructions (summed across cores).
const DefaultEvery = 10_000_000

// DefaultMaxEpochs bounds a series' memory. When a run produces more
// epochs than this, adjacent epochs are merged pairwise and the epoch
// length doubles, so arbitrarily long runs keep a bounded, uniformly
// gridded series instead of growing without limit or dropping data. It
// is not configurable: a job could otherwise lift the bound and make its
// result grow with its instruction count.
const DefaultMaxEpochs = 4096

// Config parameterizes a Recorder. It lives on sim.Config (and is
// therefore settable through morcd job-config overrides).
type Config struct {
	// Every is the epoch length in retired instructions summed across
	// all cores. 0 disables telemetry entirely.
	Every uint64
}

// Enabled reports whether a Recorder should be created at all.
func (c Config) Enabled() bool { return c.Every > 0 }

// CoreSample is one core's cumulative counters at a sample point.
type CoreSample struct {
	Instr  uint64
	Cycles uint64
	Stall  uint64
}

// Sample is a point-in-time snapshot of the simulator's counters, taken
// at an epoch boundary. All fields are cumulative; the Recorder turns
// consecutive samples into delta epochs.
type Sample struct {
	// Instr is the instructions retired across all cores since the
	// measurement window began (the epoch clock).
	Instr uint64
	LLC   cache.Stats
	Mem   mem.Stats
	Cores []CoreSample
	// Ratio is the current point-in-time compression ratio, used for an
	// epoch's CompRatio when no periodic ratio samples fell inside it.
	Ratio float64
	// Probes are scheme-specific gauges (cache.Probed), sampled at the
	// epoch boundary.
	Probes map[string]float64
}

// CoreEpoch is one core's activity during an epoch (deltas).
type CoreEpoch struct {
	Instr     uint64  `json:"instr"`
	Cycles    uint64  `json:"cycles"`
	Stall     uint64  `json:"stall"`
	IPC       float64 `json:"ipc"`
	StallFrac float64 `json:"stall_frac"`
}

// Epoch is one interval's worth of behaviour: counter deltas between two
// consecutive boundary samples, plus gauges read at the closing boundary.
type Epoch struct {
	Seq int `json:"seq"`
	// EndInstr is the epoch clock (instructions retired across cores
	// since the measurement window began) at the closing boundary.
	EndInstr uint64 `json:"end_instr"`
	// Instr is this epoch's retired-instruction delta.
	Instr uint64 `json:"instr"`
	// Cycles is the elapsed-time proxy: the delta of the slowest core's
	// cycle count across the epoch.
	Cycles uint64 `json:"cycles"`

	// LLC counter deltas.
	LLCReads   uint64  `json:"llc_reads"`
	LLCHits    uint64  `json:"llc_hits"`
	LLCMisses  uint64  `json:"llc_misses"`
	Fills      uint64  `json:"fills"`
	WriteBacks uint64  `json:"writebacks"`
	MemWBs     uint64  `json:"mem_wbs"`
	HitRate    float64 `json:"hit_rate"`

	// CompRatio is the mean of the run's periodic compression-ratio
	// samples that fell inside this epoch (RatioSamples of them), or the
	// boundary's point-in-time ratio when none did (RatioSamples == 0).
	// The RatioSamples-weighted mean across a series therefore
	// reproduces the run's reported CompRatio exactly.
	CompRatio    float64 `json:"comp_ratio"`
	RatioSamples uint64  `json:"ratio_samples"`

	// Memory-channel deltas and utilization (busy cycles over elapsed
	// cycles).
	MemReadBytes  uint64  `json:"mem_read_bytes"`
	MemWriteBytes uint64  `json:"mem_write_bytes"`
	BusyCycles    uint64  `json:"busy_cycles"`
	BWUtil        float64 `json:"bw_util"`

	// Cores is the per-core breakdown (IPC and stall fraction, §4's
	// inputs), index-aligned with sim.Result.Cores.
	Cores []CoreEpoch `json:"cores,omitempty"`
	// Probes are scheme-specific gauges read at the closing boundary
	// (see cache.Probed).
	Probes map[string]float64 `json:"probes,omitempty"`
}

// derive recomputes an epoch's ratio fields (hit rate, IPC, stall
// fraction, bandwidth utilization) from its raw deltas. Called on build
// and again after a compaction merge.
func (e *Epoch) derive() {
	e.HitRate = 0
	if e.LLCReads > 0 {
		e.HitRate = float64(e.LLCHits) / float64(e.LLCReads)
	}
	e.BWUtil = 0
	if e.Cycles > 0 {
		e.BWUtil = float64(e.BusyCycles) / float64(e.Cycles)
	}
	for i := range e.Cores {
		c := &e.Cores[i]
		c.IPC, c.StallFrac = 0, 0
		if c.Cycles > 0 {
			c.IPC = float64(c.Instr) / float64(c.Cycles)
			c.StallFrac = float64(c.Stall) / float64(c.Cycles)
		}
	}
}

// Series is a whole run's epoch trajectory.
type Series struct {
	// Scheme is the LLC organization's name, so a serialized series is
	// self-describing.
	Scheme string `json:"scheme,omitempty"`
	// Every is the epoch grid in instructions. It can be larger than the
	// configured interval if the recorder compacted.
	Every  uint64  `json:"every"`
	Epochs []Epoch `json:"epochs"`
}

// MeanRatio is the RatioSamples-weighted mean compression ratio across
// the series, which reproduces the run's reported CompRatio (the mean of
// all periodic samples) by construction.
func (s *Series) MeanRatio() float64 {
	var sum float64
	var n uint64
	for _, e := range s.Epochs {
		sum += e.CompRatio * float64(e.RatioSamples)
		n += e.RatioSamples
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Totals sums the series' per-epoch deltas; tests use it to check that
// the trajectory conserves the window totals reported in sim.Result.
func (s *Series) Totals() Epoch {
	var t Epoch
	for _, e := range s.Epochs {
		t.Instr += e.Instr
		t.LLCReads += e.LLCReads
		t.LLCHits += e.LLCHits
		t.LLCMisses += e.LLCMisses
		t.Fills += e.Fills
		t.WriteBacks += e.WriteBacks
		t.MemWBs += e.MemWBs
		t.MemReadBytes += e.MemReadBytes
		t.MemWriteBytes += e.MemWriteBytes
		t.BusyCycles += e.BusyCycles
	}
	return t
}

// WriteNDJSON writes the series as newline-delimited JSON: a header
// record describing the run, then one record per epoch. This is the
// format `morcsim -telemetry` emits and what log-ingestion pipelines
// want (one event per line).
func (s *Series) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	header := struct {
		Scheme string `json:"scheme,omitempty"`
		Every  uint64 `json:"every"`
		Epochs int    `json:"epochs"`
	}{s.Scheme, s.Every, len(s.Epochs)}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for i := range s.Epochs {
		if err := enc.Encode(&s.Epochs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the series' structural invariants: strictly increasing
// epoch stamps on the Every grid's order, sequential Seq numbers, and
// internally consistent deltas. The correctness harness calls it for
// every scheme.
func (s *Series) Validate() error {
	var prevEnd uint64
	for i, e := range s.Epochs {
		if e.Seq != i {
			return fmt.Errorf("telemetry: epoch %d has seq %d", i, e.Seq)
		}
		if i > 0 && e.EndInstr <= prevEnd {
			return fmt.Errorf("telemetry: epoch %d stamp %d not after %d", i, e.EndInstr, prevEnd)
		}
		if e.LLCHits > e.LLCReads {
			return fmt.Errorf("telemetry: epoch %d has %d hits for %d reads", i, e.LLCHits, e.LLCReads)
		}
		if e.LLCHits+e.LLCMisses != e.LLCReads {
			return fmt.Errorf("telemetry: epoch %d hits %d + misses %d != reads %d",
				i, e.LLCHits, e.LLCMisses, e.LLCReads)
		}
		prevEnd = e.EndInstr
	}
	return nil
}
