//go:build !race

// The race detector's instrumentation allocates, so this gate only
// builds without it.

package trace

import (
	"runtime"
	"testing"

	"morc/internal/cache"
)

// TestWrittenLinesFootprint bounds what storing 10⁵ distinct
// written-back lines allocates, counted in TotalAlloc so that GC timing
// cannot move it: a 72-byte record per line in pages, plus an index of
// 4-byte slots at most half full and the smaller indexes it outgrew,
// about 9 MB. A map of 64-byte arrays allocated 20 MB for these lines.
func TestWrittenLinesFootprint(t *testing.T) {
	const lines = 100_000
	m := NewMemory(MustGet("gcc"))
	var line [cache.LineSize]byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < lines; i++ {
		line[0] = byte(i)
		m.WriteLine(i*cache.LineSize, line[:])
	}
	runtime.ReadMemStats(&after)
	if got := m.WrittenLines(); got != lines {
		t.Fatalf("%d lines stored, want %d", got, lines)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 10<<20 {
		t.Errorf("%d distinct WriteLines allocated %.1f MB, want < 10 MB", lines, float64(got)/(1<<20))
	}
}
