// Package core implements MORC, the log-based inter-line compressed
// last-level cache that is the paper's primary contribution (§3).
//
// Data is stored in fixed-size append-only logs compressed with LBE
// (Large-Block Encoding); tags are base-delta compressed per log; a
// Line-Map Table (LMT) over-provisioned for the maximum compression ratio
// redirects addresses to logs; and fills choose among multiple active
// logs for content-aware compression. See DESIGN.md for the experiment
// map and the invariants the test suite enforces.
package core

import (
	"fmt"

	"morc/internal/compress/lbe"
	"morc/internal/compress/tagdelta"
)

// Config parameterizes a MORC cache. DefaultConfig returns the paper's
// evaluated configuration (§4): 512-byte logs, LBE, 8 active logs,
// two-base tag compression, a 2-way column-associative LMT sized for 8×
// compression.
type Config struct {
	// CacheBytes is the data-store capacity (the log storage). The paper's
	// default is 128KB per core.
	CacheBytes int
	// LogBytes is the size of each log (default 512).
	LogBytes int
	// ActiveLogs is the number of logs open for appending (default 8, at
	// most lbe.MaxGroupSlots).
	ActiveLogs int
	// LMTFactor over-provisions the LMT: entries = lines-at-1x × factor
	// (default 8, supporting 8× compression).
	LMTFactor int
	// LMTAssoc is the LMT associativity (default 2, emulating the paper's
	// column-associative arrangement).
	LMTAssoc int
	// TagBytesPerLog is the per-log compressed-tag region (default 128).
	// The paper's Table 4 footprint implies 40 bytes per 512-byte log,
	// which assumes nearly perfectly sequential fill streams (~6 bits per
	// tag); our synthetic miss streams interleave several walks and
	// average ~14-16 bits per tag, so the default region is sized for
	// that (see EXPERIMENTS.md). Ignored when Merged is set — merged logs
	// share capacity adaptively, which is the configuration this trade-
	// off favours.
	TagBytesPerLog int
	// Merged co-locates tags with data in the log ("MORCMerged", §3.2.6):
	// data grows from the left, tags from the right, sharing LogBytes.
	Merged bool
	// FudgeFactor diversifies multi-log insertion: when the best and worst
	// trial sizes are within this fraction, the line is seeded to the
	// least-used active log (§3.2.3; default 0.05).
	FudgeFactor float64
	// UnlimitedTags removes the tag-region and LMT capacity limits; used
	// by the paper's limit studies (Figure 13).
	UnlimitedTags bool
	// DisableCompression stores lines raw in the logs (Figure 12's
	// invalidation study, which disables compression to accentuate
	// write-back effects).
	DisableCompression bool
	// VerifyReads makes every read hit actually decompress the log
	// through the requested line and compare against the bookkeeping
	// copy, panicking on mismatch. Slow; for tests and debugging (the
	// test suite also verifies all streams via CheckInvariants).
	VerifyReads bool
	// LBE configures the data codec; Tag configures the tag codec.
	LBE lbe.Config
	Tag tagdelta.Config
}

// DefaultConfig returns the paper's default MORC for the given capacity.
func DefaultConfig(cacheBytes int) Config {
	return Config{
		CacheBytes:     cacheBytes,
		LogBytes:       512,
		ActiveLogs:     8,
		LMTFactor:      8,
		LMTAssoc:       2,
		TagBytesPerLog: 128,
		FudgeFactor:    0.05,
		LBE:            lbe.DefaultConfig(),
		Tag:            tagdelta.DefaultConfig(),
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.CacheBytes <= 0 || c.LogBytes <= 0 || c.CacheBytes%c.LogBytes != 0 {
		return fmt.Errorf("core: CacheBytes %d must be a positive multiple of LogBytes %d", c.CacheBytes, c.LogBytes)
	}
	numLogs := c.CacheBytes / c.LogBytes
	if c.ActiveLogs < 1 || c.ActiveLogs >= numLogs {
		return fmt.Errorf("core: ActiveLogs %d must be in [1, %d)", c.ActiveLogs, numLogs)
	}
	if c.ActiveLogs > lbe.MaxGroupSlots {
		return fmt.Errorf("core: ActiveLogs %d exceeds %d, the most logs one insert sizes at once", c.ActiveLogs, lbe.MaxGroupSlots)
	}
	if c.LMTFactor < 1 {
		return fmt.Errorf("core: LMTFactor %d must be >= 1", c.LMTFactor)
	}
	if c.LMTAssoc < 1 {
		return fmt.Errorf("core: LMTAssoc %d must be >= 1", c.LMTAssoc)
	}
	if !c.Merged && !c.UnlimitedTags && c.TagBytesPerLog < 8 {
		return fmt.Errorf("core: TagBytesPerLog %d too small", c.TagBytesPerLog)
	}
	if c.FudgeFactor < 0 || c.FudgeFactor > 1 {
		return fmt.Errorf("core: FudgeFactor %g out of [0,1]", c.FudgeFactor)
	}
	if c.LogBytes < 128 {
		return fmt.Errorf("core: LogBytes %d must be >= 128 to hold an incompressible line", c.LogBytes)
	}
	if err := c.LBE.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
