// Package sim is the trace-driven manycore simulator the evaluation runs
// on: in-order cores (1 CPI for non-memory instructions), private 32KB
// 4-way L1s, a shared non-inclusive LLC of the configured organization,
// and an FCFS bandwidth-limited memory system — the system of Table 5.
//
// The simulator is cycle-accounting rather than micro-architectural,
// exactly like the paper's PriME methodology: every L1 miss blocks its
// core for the LLC access latency (base + decompression) plus, on an LLC
// miss, the DRAM access and bandwidth-queueing delay. Throughput is
// additionally estimated under the paper's 4-thread coarse-grain
// multithreading model (§4): a thread switch hides miss latency up to
// (threads-1) × the workload's average inter-miss gap.
package sim

import (
	"fmt"

	"morc/internal/baseline"
	"morc/internal/cache"
	"morc/internal/core"
	"morc/internal/telemetry"
)

// Scheme selects the LLC organization.
type Scheme int

// The compared LLC organizations.
const (
	Uncompressed Scheme = iota
	Uncompressed8x
	Adaptive
	Decoupled
	SC2
	MORC
	MORCMerged
	// Skewed is the Skewed Compressed Cache (§6's related work), included
	// as an extension comparison point.
	Skewed
)

// ComparedSchemes returns the five schemes of Figure 6.
func ComparedSchemes() []Scheme {
	return []Scheme{Uncompressed, Adaptive, Decoupled, SC2, MORC}
}

// Config is the system configuration (defaults = Table 5).
type Config struct {
	Cores           int
	L1Bytes, L1Ways int
	LLCBytesPerCore int
	LLCLatency      int // base cycles
	Scheme          Scheme
	// BWPerCore is off-chip bandwidth per core in bytes/sec; the channel
	// is shared, sized BWPerCore × Cores.
	BWPerCore  float64
	MemLatency uint64 // DRAM access cycles
	Threads    int    // CGMT threads per core for the throughput model
	Inclusive  bool   // insert fetched lines on store misses too (§5.4.2)
	// LinkCompression compresses lines on the memory channel with C-Pack
	// (§6's "memory link compression", which the paper calls
	// complementary to cache compression): transfers consume bandwidth
	// proportional to the compressed size instead of 64 bytes.
	LinkCompression bool
	ClockHz         float64

	WarmupInstr  uint64 // per core
	MeasureInstr uint64 // per core
	SampleEvery  uint64 // compression-ratio sampling interval (instructions)

	// Telemetry, when enabled (Every > 0), records a per-epoch time
	// series of the measurement window onto Result.Telemetry; see
	// morc/internal/telemetry. The paper's grid is 10M instructions
	// (telemetry.DefaultEvery). Disabled by default: the hot loop then
	// pays only a nil check.
	Telemetry telemetry.Config

	// Sampling holds nothing: every run simulates its whole window.
	//
	// Deprecated: see SamplingConfig.
	Sampling SamplingConfig

	// MORCConfig overrides the MORC configuration (nil = paper default
	// for the LLC capacity). Used by the sensitivity studies.
	MORCConfig *core.Config
}

// SamplingConfig has no fields and cannot enable anything, so a job
// override naming a sampling parameter fails strict decoding.
//
// Deprecated: the simulator has no sampled mode; representative-interval
// sampling was removed because, cold, it ran sampled MORC less than 2x
// faster than a full run. The type stays only while cmd/morcperf's
// replay still calls Enabled.
type SamplingConfig struct{}

// Enabled reports false: no run is sampled.
func (SamplingConfig) Enabled() bool { return false }

// DefaultConfig returns the Table 5 system for one core.
func DefaultConfig() Config {
	return Config{
		Cores:           1,
		L1Bytes:         32 * 1024,
		L1Ways:          4,
		LLCBytesPerCore: 128 * 1024,
		LLCLatency:      14,
		Scheme:          Uncompressed,
		BWPerCore:       100e6,
		MemLatency:      80,
		Threads:         4,
		ClockHz:         2e9,
		WarmupInstr:     500_000,
		MeasureInstr:    1_000_000,
		SampleEvery:     100_000,
	}
}

// The ceilings Validate holds sizes and run lengths to, so that no
// configuration makes New allocate without bound or a run last without
// end. Each admits every registered experiment at the full budget, the
// benchmark's workloads and the examples with room to spare: their
// largest LLC is fig11's 4 MB on one core, their most cores a Table 6
// mix's 16, their largest L1 Table 5's 32 KB and their longest phase
// 2M instructions per core.
const (
	MaxCores    = 64
	MaxL1Bytes  = 1 << 20  // per core
	MaxLLCBytes = 16 << 20 // LLCBytesPerCore × Cores
	// MaxPhaseInstr bounds WarmupInstr and MeasureInstr, per core.
	MaxPhaseInstr = 10_000_000_000
)

// CheckCeilings reports the first of Cores, L1Bytes, LLCBytesPerCore ×
// Cores, WarmupInstr and MeasureInstr above its ceiling, naming the
// field and the ceiling. Validate calls it.
func (cfg Config) CheckCeilings() error {
	switch {
	case cfg.Cores > MaxCores:
		return fmt.Errorf("bad config: Cores %d exceeds the ceiling %d", cfg.Cores, MaxCores)
	case cfg.L1Bytes > MaxL1Bytes:
		return fmt.Errorf("bad config: L1Bytes %d exceeds the ceiling %d", cfg.L1Bytes, MaxL1Bytes)
	// A huge LLCBytesPerCore is refused before the product can overflow.
	case cfg.LLCBytesPerCore > MaxLLCBytes || cfg.LLCBytesPerCore*cfg.Cores > MaxLLCBytes:
		return fmt.Errorf("bad config: LLCBytesPerCore %d × Cores %d exceeds the ceiling %d",
			cfg.LLCBytesPerCore, cfg.Cores, MaxLLCBytes)
	case cfg.WarmupInstr > MaxPhaseInstr:
		return fmt.Errorf("bad config: WarmupInstr %d exceeds the ceiling %d", cfg.WarmupInstr, uint64(MaxPhaseInstr))
	case cfg.MeasureInstr > MaxPhaseInstr:
		return fmt.Errorf("bad config: MeasureInstr %d exceeds the ceiling %d", cfg.MeasureInstr, uint64(MaxPhaseInstr))
	}
	return nil
}

// Validate reports whether New can build this configuration and the run
// it describes means something: positive bandwidth and clock (the memory
// controller divides by them), a nonzero ratio-sampling interval, at
// least one CGMT thread, a non-negative LLC latency, sizes and phase
// lengths within their ceilings (CheckCeilings), and cache geometries
// CheckGeometry accepts. NewSingle, NewMix and RunCtx return its error;
// job validation calls it at submit.
func (cfg Config) Validate() error {
	if err := cfg.CheckCeilings(); err != nil {
		return err
	}
	switch {
	case !(cfg.BWPerCore > 0):
		return fmt.Errorf("bad config: BWPerCore %v must be positive", cfg.BWPerCore)
	case !(cfg.ClockHz > 0):
		return fmt.Errorf("bad config: ClockHz %v must be positive", cfg.ClockHz)
	case cfg.SampleEvery == 0:
		return fmt.Errorf("bad config: SampleEvery must be positive")
	case cfg.Threads < 1:
		return fmt.Errorf("bad config: Threads %d must be at least 1", cfg.Threads)
	case cfg.LLCLatency < 0:
		return fmt.Errorf("bad config: LLCLatency %d must not be negative", cfg.LLCLatency)
	}
	if err := cfg.CheckGeometry(); err != nil {
		return fmt.Errorf("bad cache geometry: %w", err)
	}
	return nil
}

// NewLLC builds the configured LLC organization. New calls it, and
// test harnesses (internal/check) use it to obtain the exact
// cache-under-test the simulator would run for a given Config. It
// panics on a configuration CheckGeometry rejects.
func (cfg Config) NewLLC() cache.LLC {
	build, err := cfg.llc()
	if err != nil {
		panic(err)
	}
	return build()
}

// CheckGeometry reports whether New can build this configuration's
// caches: the private L1s, and the LLC of cfg.Scheme for cfg.Cores
// cores. Each is checked by the rule its constructor panics on, so a
// configuration that passes builds. Validate calls it.
func (cfg Config) CheckGeometry() error {
	if err := cache.CheckGeometry(cfg.L1Bytes, cfg.L1Ways); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	_, err := cfg.llc()
	return err
}

// llc resolves cfg.Scheme to its LLC constructor, sized to the scheme's
// slices of LLCBytesPerCore per core, and checks cfg against that
// constructor's own rule, so NewLLC and CheckGeometry cannot disagree.
func (cfg Config) llc() (func() cache.LLC, error) {
	capacity := cfg.LLCBytesPerCore * cfg.Cores * cfg.Scheme.row().slices
	switch cfg.Scheme {
	case Uncompressed, Uncompressed8x:
		return func() cache.LLC { return cache.NewSetAssoc(capacity, 8, cache.LRU) }, cache.CheckGeometry(capacity, 8)
	case Adaptive, Decoupled, SC2:
		kind := map[Scheme]baseline.Kind{Adaptive: baseline.Adaptive, Decoupled: baseline.Decoupled, SC2: baseline.SC2}[cfg.Scheme]
		bc := baseline.DefaultConfig(kind, capacity)
		return func() cache.LLC { return baseline.New(bc) }, bc.Validate()
	case Skewed:
		return func() cache.LLC { return baseline.NewSkewed(capacity) }, baseline.ValidateSkewed(capacity)
	case MORC, MORCMerged:
		mc := cfg.EffectiveMORCConfig()
		return func() cache.LLC { return core.New(mc) }, mc.Validate()
	}
	return nil, fmt.Errorf("sim: unknown scheme %v", cfg.Scheme)
}

// EffectiveMORCConfig returns the MORC configuration NewLLC builds for
// the MORC schemes: MORCConfig, or the paper's default, sized to the
// LLC's capacity, with merged tags for MORCMerged.
func (cfg Config) EffectiveMORCConfig() core.Config {
	capacity := cfg.LLCBytesPerCore * cfg.Cores
	mc := core.DefaultConfig(capacity)
	if cfg.MORCConfig != nil {
		mc = *cfg.MORCConfig
		mc.CacheBytes = capacity
	}
	if cfg.Scheme == MORCMerged {
		mc.Merged = true
	}
	return mc
}
