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

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case Uncompressed:
		return "Uncompressed"
	case Uncompressed8x:
		return "Uncompressed8x"
	case Adaptive:
		return "Adaptive"
	case Decoupled:
		return "Decoupled"
	case SC2:
		return "SC2"
	case MORC:
		return "MORC"
	case MORCMerged:
		return "MORCMerged"
	case Skewed:
		return "Skewed"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

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
	// MemBanks enables DDR3 bank-level timing in the memory controller
	// (0 = idealized channel, the configuration the headline results
	// use); MemBankBusy is the row-cycle time tRC in core cycles.
	MemBanks    int
	MemBankBusy uint64
	Threads     int  // CGMT threads per core for the throughput model
	Inclusive   bool // insert fetched lines on store misses too (§5.4.2)
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

	// Sampling, when enabled (IntervalInstr > 0), switches the run to
	// representative-interval sampling: profile, cluster, simulate only
	// one window per cluster in detail, extrapolate (see sampling.go and
	// morc/internal/sample). Result.Sampling then reports the schedule
	// and error estimates. Composable with Telemetry (one epoch per
	// measured window).
	Sampling SamplingConfig

	// MORCConfig overrides the MORC configuration (nil = paper default
	// for the LLC capacity). Used by the sensitivity studies.
	MORCConfig *core.Config
}

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

// NewLLC builds the configured LLC organization. New calls it, and
// test harnesses (internal/check) use it to obtain the exact
// cache-under-test the simulator would run for a given Config.
func (cfg Config) NewLLC() cache.LLC {
	capacity := cfg.LLCBytesPerCore * cfg.Cores
	switch cfg.Scheme {
	case Uncompressed:
		return cache.NewSetAssoc(capacity, 8, cache.LRU)
	case Uncompressed8x:
		return cache.NewSetAssoc(8*capacity, 8, cache.LRU)
	case Adaptive:
		return baseline.New(baseline.DefaultConfig(baseline.Adaptive, capacity))
	case Decoupled:
		return baseline.New(baseline.DefaultConfig(baseline.Decoupled, capacity))
	case SC2:
		return baseline.New(baseline.DefaultConfig(baseline.SC2, capacity))
	case Skewed:
		return baseline.NewSkewed(capacity)
	case MORC, MORCMerged:
		var mc core.Config
		if cfg.MORCConfig != nil {
			mc = *cfg.MORCConfig
			mc.CacheBytes = capacity
		} else {
			mc = core.DefaultConfig(capacity)
		}
		if cfg.Scheme == MORCMerged {
			mc.Merged = true
		}
		return core.New(mc)
	}
	panic(fmt.Sprintf("sim: unknown scheme %v", cfg.Scheme))
}
