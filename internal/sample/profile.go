package sample

import (
	"context"
	"fmt"

	"morc/internal/cache"
	"morc/internal/compress/cpack"
	"morc/internal/trace"
)

// Spec describes one profiling pass: the workloads and the cache
// geometry of the run being sampled, plus the interval grid. A Spec is
// scheme-independent on purpose — the proxy LLC is always the
// uncompressed 8-way organization — so every scheme of a sweep shares
// one profile (see Cached).
type Spec struct {
	Programs []trace.Profile
	L1Bytes  int
	L1Ways   int
	// LLCBytes is the whole shared LLC's data capacity (per-core × cores).
	LLCBytes int
	// WarmupInstr is the per-core instruction count before the first
	// interval; the profiler simulates it (to warm the proxy caches) but
	// records no signature for it.
	WarmupInstr uint64
	// IntervalInstr is the per-core interval length; Intervals is how
	// many of them to profile.
	IntervalInstr uint64
	Intervals     int
}

// Profile is the profiling pass's output: one Signature per interval.
type Profile struct {
	IntervalInstr uint64
	Signatures    []Signature
	// Instr is the total instructions the profiler executed across all
	// cores (warmup included) — the functional-simulation cost of the
	// pass, reported on sim.Result.Sampling as ProfiledInstr.
	Instr uint64
}

// Fixed proxy latencies (core cycles) for the IPCProxy feature: an L1
// hit is pipelined (0 extra), an LLC hit costs the Table 5 base LLC
// latency, an LLC miss additionally the DRAM access. Bandwidth queueing
// is deliberately absent — it is a global effect the detailed windows
// measure; the proxy only needs to rank intervals.
const (
	proxyLLCLat = 14
	proxyMemLat = 94
)

// fillSampleEvery subsamples the fill stream for the CompRatio feature:
// C-Pack is the expensive part of the pass, so only every Nth proxy-LLC
// fill is compressed.
const fillSampleEvery = 8

// profCheckEvery is how many accesses pass between context checks.
const profCheckEvery = 4096

// profCore is one core's functional state during the pass.
type profCore struct {
	gen   trace.Generator
	memv  *trace.Memory
	l1    *cache.SetAssoc
	now   uint64 // proxy cycles
	instr uint64
	// store is the line a store miss mutates: the proxy LLC's read
	// result is the LLC's own bytes.
	store [cache.LineSize]byte
}

// Run executes the profiling pass: a functional simulation of all cores
// against private L1s and one shared uncompressed proxy LLC, cut into
// per-core intervals of IntervalInstr, emitting one Signature per
// interval. It is a pure function of spec.
func Run(ctx context.Context, spec Spec) (*Profile, error) {
	if spec.IntervalInstr == 0 || spec.Intervals < 1 {
		return nil, fmt.Errorf("sample: bad interval grid %d×%d", spec.Intervals, spec.IntervalInstr)
	}
	if len(spec.Programs) == 0 {
		return nil, fmt.Errorf("sample: no programs")
	}
	cores := make([]*profCore, len(spec.Programs))
	for i, p := range spec.Programs {
		cores[i] = &profCore{
			gen:  trace.NewSynthGen(p),
			memv: trace.NewMemory(p),
			l1:   cache.NewSetAssoc(spec.L1Bytes, spec.L1Ways, cache.LRU),
		}
	}
	llc := cache.NewSetAssoc(spec.LLCBytes, 8, cache.LRU)

	// One slot per interval, filled in order by cut — bounded by the Spec,
	// not by the instruction stream (morclint hotalloc's growth rule).
	sigs := make([]Signature, 0, spec.Intervals)
	done := ctx.Done()
	steps := 0

	// Per-interval counters, reset at each cut.
	var refs, stores, l1Misses, llcMisses uint64
	var instrStart, cycStart uint64
	var rawBits, compBits uint64
	var fills uint64
	footprint := map[uint64]struct{}{}
	lastRatio := 1.0

	step := func(c *profCore) {
		a := c.gen.Next()
		c.now += uint64(a.NonMem) + 1
		c.instr += a.Instructions()
		refs++
		if a.Kind == trace.Store {
			stores++
		}

		// L1 hit paths: loads read, stores mutate the L1's line in place.
		if res := c.l1.Read(a.Addr); res.Hit {
			if a.Kind == trace.Store {
				c.memv.ApplyStore(res.Data, a.Addr)
				c.l1.Update(a.Addr, res.Data, true)
			}
			return
		}

		// L1 miss: the footprint the LLC sees.
		l1Misses++
		footprint[a.Addr/cache.LineSize] = struct{}{}

		var data []byte
		if res := llc.Read(a.Addr); res.Hit {
			data = res.Data
			c.now += proxyLLCLat
		} else {
			llcMisses++
			data = c.memv.ReadLine(a.Addr)
			for _, wb := range llc.Fill(a.Addr, data) {
				c.memv.WriteLine(wb.Addr, wb.Data)
			}
			c.now += proxyMemLat
			if fills++; fills%fillSampleEvery == 1 {
				rawBits += uint64(cache.LineSize) * 8
				compBits += uint64(cpack.CompressedBits(data))
			}
		}
		if a.Kind == trace.Store {
			copy(c.store[:], data)
			c.memv.ApplyStore(c.store[:], a.Addr)
			data = c.store[:]
		}
		for _, wb := range c.l1.Fill(a.Addr, data) {
			for _, lwb := range llc.WriteBack(wb.Addr, wb.Data) {
				c.memv.WriteLine(lwb.Addr, lwb.Data)
			}
		}
		if a.Kind == trace.Store {
			c.l1.Update(a.Addr, data, true)
		}
	}

	// advance runs every core to the per-core instruction target,
	// interleaved oldest-first like the simulator's reference loop.
	advance := func(target uint64) error {
		for {
			var pick *profCore
			for _, c := range cores {
				if c.instr >= target {
					continue
				}
				if pick == nil || c.now < pick.now {
					pick = c
				}
			}
			if pick == nil {
				return nil
			}
			step(pick)
			if steps++; steps >= profCheckEvery {
				steps = 0
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
		}
	}

	cut := func() {
		var instr, cyc uint64
		for _, c := range cores {
			instr += c.instr
			cyc += c.now
		}
		dInstr := instr - instrStart
		dCyc := cyc - cycStart
		sig := Signature{CompRatio: lastRatio}
		if refs > 0 {
			sig.WriteFrac = float64(stores) / float64(refs)
		}
		if l1Misses > 0 {
			sig.MissRate = float64(llcMisses) / float64(l1Misses)
		}
		if compBits > 0 {
			sig.CompRatio = float64(rawBits) / float64(compBits)
			lastRatio = sig.CompRatio
		}
		if dInstr > 0 {
			sig.Footprint = 1000 * float64(len(footprint)) / float64(dInstr)
		}
		if dCyc > 0 {
			sig.IPCProxy = float64(dInstr) / float64(dCyc)
		}
		sigs = append(sigs, sig)

		instrStart, cycStart = instr, cyc
		refs, stores, l1Misses, llcMisses = 0, 0, 0, 0
		rawBits, compBits = 0, 0
		footprint = map[uint64]struct{}{}
	}

	if err := advance(spec.WarmupInstr); err != nil {
		return nil, err
	}
	// Warmup contributes no signature; reset the interval counters.
	var instr, cyc uint64
	for _, c := range cores {
		instr += c.instr
		cyc += c.now
	}
	instrStart, cycStart = instr, cyc
	refs, stores, l1Misses, llcMisses = 0, 0, 0, 0
	rawBits, compBits, fills = 0, 0, 0
	footprint = map[uint64]struct{}{}

	for k := 1; k <= spec.Intervals; k++ {
		if err := advance(spec.WarmupInstr + uint64(k)*spec.IntervalInstr); err != nil {
			return nil, err
		}
		cut()
	}
	prof := &Profile{IntervalInstr: spec.IntervalInstr, Signatures: sigs}
	for _, c := range cores {
		prof.Instr += c.instr
	}
	return prof, nil
}
