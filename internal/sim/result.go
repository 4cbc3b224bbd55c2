package sim

import (
	"morc/internal/cache"
	"morc/internal/energy"
	"morc/internal/stats"
	"morc/internal/telemetry"
)

// CoreResult summarizes one core's measurement window.
type CoreResult struct {
	Instructions uint64
	Cycles       uint64
	IPC          float64
	Refs         uint64 // memory references (L1 accesses)
	L1Misses     uint64
	StallCycles  uint64
	// AvgGap is the average compute cycles between consecutive L1 misses
	// — the latency tolerance the CGMT model can exploit (§4).
	AvgGap float64
	// ThroughputIPC is the estimated multithreaded (CGMT) throughput:
	// instructions over compute cycles plus only the un-hideable stalls.
	ThroughputIPC float64
	// MissLatency is the distribution of this core's L1-miss service
	// latencies in core cycles — the system-level analogue of Figure 14's
	// per-hit decompression-latency distribution. AvgMissLatency is its
	// mean.
	MissLatency    *stats.Histogram `json:"MissLatency,omitempty"`
	AvgMissLatency float64
}

// Result is one simulation's outcome.
type Result struct {
	Scheme Scheme
	Cores  []CoreResult

	// CompRatio is the mean sampled compression ratio (valid bytes over
	// capacity), the paper's Figure 6a metric.
	CompRatio float64
	// MemBytes is total off-chip traffic during the window.
	MemBytes uint64
	// GBPerBillionInstr is Figure 6b's bandwidth metric.
	GBPerBillionInstr float64
	// IPC is the geometric mean of per-core IPCs; Throughput the gmean of
	// per-core CGMT throughputs; CompletionCycles the slowest core's
	// cycle count (Figure 8d's completion-time metric).
	IPC              float64
	Throughput       float64
	CompletionCycles uint64
	// Energy is the Table 7 memory-subsystem model applied to the window.
	Energy energy.Breakdown
	// LLCStats is the window's LLC counter delta.
	LLCStats cache.Stats
	// Telemetry is the per-epoch time series of the measurement window,
	// recorded when Config.Telemetry is enabled (nil otherwise). Its
	// per-epoch deltas sum to this Result's window totals and its
	// sample-weighted mean ratio reproduces CompRatio.
	Telemetry *telemetry.Series `json:"telemetry,omitempty"`
}

// collect computes the Result after the measurement window.
func (s *System) collect() Result {
	res := Result{Scheme: s.cfg.Scheme, CompRatio: s.ratio.Mean()}

	var totalInstr uint64
	var ipcs, tputs []float64
	for _, c := range s.cores {
		cyc := c.now - c.startCyc
		ins := c.instr - c.startInst
		cr := CoreResult{
			Instructions: ins,
			Cycles:       cyc,
			Refs:         c.refs,
			L1Misses:     c.l1Misses,
			StallCycles:  c.stall,
		}
		if cyc > 0 {
			cr.IPC = float64(ins) / float64(cyc)
		}
		compute := cyc - c.stall
		if c.l1Misses > 0 {
			cr.AvgGap = float64(compute) / float64(c.l1Misses)
		}
		// CGMT throughput (§4): each miss is overlapped with the other
		// threads' compute; only latency beyond (threads-1)*AvgGap stalls
		// the core. Computed piecewise from the online latency histogram:
		// exact for buckets entirely above or below the hideable latency,
		// mean-approximated only for the single straddling bucket.
		hidden := float64(s.cfg.Threads-1) * cr.AvgGap
		var residual uint64
		for b, n := range c.missLat.Counts {
			if n == 0 {
				continue
			}
			if excess := c.missLat.Sums[b] - hidden*float64(n); excess > 0 {
				residual += uint64(excess)
			}
		}
		cr.MissLatency = c.missLat
		cr.AvgMissLatency = c.missLat.Mean()
		tcyc := compute + residual
		if tcyc > 0 {
			cr.ThroughputIPC = float64(ins) / float64(tcyc)
		}
		res.Cores = append(res.Cores, cr)
		totalInstr += ins
		ipcs = append(ipcs, cr.IPC)
		tputs = append(tputs, cr.ThroughputIPC)
		if cyc > res.CompletionCycles {
			res.CompletionCycles = cyc
		}
	}
	res.IPC = stats.GeoMean(ipcs)
	res.Throughput = stats.GeoMean(tputs)

	ms := s.memctl.Stats()
	res.MemBytes = ms.TotalBytes() - s.memSnap.TotalBytes()
	if totalInstr > 0 {
		res.GBPerBillionInstr = float64(res.MemBytes) / float64(totalInstr)
		// bytes/instr == GB per 1e9 instructions.
	}

	ls := *s.llc.Stats()
	res.LLCStats = cache.Stats{
		Reads:        ls.Reads - s.llcSnap.Reads,
		Hits:         ls.Hits - s.llcSnap.Hits,
		Misses:       ls.Misses - s.llcSnap.Misses,
		Fills:        ls.Fills - s.llcSnap.Fills,
		WriteBacks:   ls.WriteBacks - s.llcSnap.WriteBacks,
		MemWBs:       ls.MemWBs - s.llcSnap.MemWBs,
		ExtraCycles:  ls.ExtraCycles - s.llcSnap.ExtraCycles,
		Compressions: ls.Compressions - s.llcSnap.Compressions,
		Decompressed: ls.Decompressed - s.llcSnap.Decompressed,
	}

	res.Energy = s.computeEnergy(res)
	if s.tel != nil {
		var total uint64
		for _, c := range s.cores {
			total += c.instr
		}
		res.Telemetry = s.tel.Finish(s.telemetrySample(total - s.sampleAt))
	}
	return res
}

// computeEnergy applies the Table 7 model to the window's events.
func (s *System) computeEnergy(res Result) energy.Breakdown {
	ms := s.memctl.Stats()
	row := s.cfg.Scheme.row()
	p := energy.TableDefaults()
	p.Engine = row.engine
	p.LLCStaticW *= float64(row.slices)
	p.ClockHz = s.cfg.ClockHz
	var refs uint64
	for _, c := range res.Cores {
		refs += c.Refs
	}
	ev := energy.Events{
		Cycles:            res.CompletionCycles,
		Cores:             s.cfg.Cores,
		L1Accesses:        refs,
		LLCAccesses:       res.LLCStats.Reads + res.LLCStats.Fills + res.LLCStats.WriteBacks,
		DRAMAccesses:      (ms.Reads + ms.Writes) - (s.memSnap.Reads + s.memSnap.Writes),
		Compressions:      res.LLCStats.Compressions,
		DecompressedBytes: res.LLCStats.Decompressed,
	}
	return energy.Compute(p, ev)
}
