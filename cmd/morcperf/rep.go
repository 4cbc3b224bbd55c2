package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"morc/internal/core"
	"morc/internal/sim"
)

// repResult is what one rep, run in a fresh child process, reports to
// the orchestrator as JSON on its standard output.
type repResult struct {
	Kind   string   `json:"kind"`
	Ops    int      `json:"ops"`    // units of work attempted: the rep itself, or its jobs
	Failed int      `json:"failed"` // units that errored or returned a wrong result
	Errors []string `json:"errors,omitempty"`
	// Digest is the SHA-256 of the simulated results: the simulations'
	// Result JSON for a sim rep, the jobs' results in job order for a
	// jobs rep. Reps of one workload and seed must agree on it.
	Digest   string    `json:"digest,omitempty"`
	SetupSec float64   `json:"setup_s"` // process start to first simulated access, or to /healthz OK
	WallSec  float64   `json:"wall_s"`  // host time of the measured work
	Instr    float64   `json:"instr"`   // simulated instructions in the measured work
	CPUSec   float64   `json:"cpu_s"`   // process user+sys CPU at the end of the measured work
	RSSMB    float64   `json:"rss_mb"`  // process peak RSS at the end of the measured work
	JobMs    []float64 `json:"job_ms"`  // latency of each job: a sim rep's simulations are one
	ProbeSec float64   `json:"probe_s"` // the host-speed probe around the rep, set by the orchestrator

	Runtime *runtimeStats        `json:"runtime,omitempty"` // sim reps
	Layers  *layerReport         `json:"layers,omitempty"`  // traced reps
	Spans   map[string][]float64 `json:"spans,omitempty"`   // jobs reps: per span, ms per job
}

func (r *repResult) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// runtimeStats are the Go runtime's totals for a sim rep, read once at
// the end of its measured work.
type runtimeStats struct {
	GCCPUFrac  float64 `json:"gc_cpu_frac"` // GC share of the CPU the process used
	Allocs     float64 `json:"allocs"`
	AllocBytes float64 `json:"alloc_bytes"`
}

// layerReport is a traced rep's raw span totals and window counters;
// layerMetrics turns it into per-layer metrics.
type layerReport struct {
	SpanInsideNs float64          `json:"span_inside_ns"` // a span's own cost, inside its measured duration
	SpanWholeNs  float64          `json:"span_whole_ns"`  // a span's whole cost to the traced run
	WallNs       float64          `json:"wall_ns"`        // traced host time, summed over the simulations
	UntracedNs   float64          `json:"untraced_ns"`    // the same simulations' host time on the real simulator
	Instr        float64          `json:"instr"`
	Calls        [numLayers]int64 `json:"calls"`
	RawNs        [numLayers]int64 `json:"raw_ns"`
	L1Refs       uint64           `json:"l1_refs"`
	L1Misses     uint64           `json:"l1_misses"`
	LLCReads     uint64           `json:"llc_reads"`
	LLCHits      uint64           `json:"llc_hits"`
	MemReads     uint64           `json:"mem_reads"`
	MemQueue     uint64           `json:"mem_queue_cycles"`
	Codec        codecReport      `json:"codec"`
}

// codecLines caps the LLC line stream a traced rep records for the
// codec replay (2 MB of line data).
const codecLines = 1 << 15

func runRep(ctx context.Context, kind string, w *workload, seed int64, b budget, t0 time.Time) repResult {
	switch kind {
	case kindSim:
		return simRep(ctx, w.Sims(seed, b), t0)
	case kindTraced:
		return tracedRep(ctx, w.Sims(seed, b))
	case kindJobs:
		return jobsRep(ctx, w.Jobs(seed, b), t0)
	case kindSetup:
		return setupRep(ctx, w, seed, b, t0)
	}
	rr := repResult{Kind: kind, Ops: 1}
	rr.fail("unknown rep kind %q", kind)
	return rr
}

// simRep runs the simulations back to back on the real simulator. The
// measured work is each simulation's run, from the built system's first
// access to its Result. The rep is one job: its latency runs from the
// first sim.New to the last Result.
func simRep(ctx context.Context, runs []simRun, t0 time.Time) repResult {
	rr := repResult{Kind: kindSim, Ops: 1}
	h := sha256.New()
	start := time.Now()
	for i, sr := range runs {
		s := sim.New(sr.Cfg, sr.Progs)
		ready := time.Now()
		res, err := s.RunCtx(ctx)
		end := time.Now()
		if err != nil {
			rr.fail("%s: %v", sr.Label, err)
			return rr
		}
		if err := checkResult(sr, res); err != nil {
			rr.fail("%s: %v", sr.Label, err)
		}
		if i == 0 {
			rr.SetupSec = ready.Sub(t0).Seconds()
		}
		rr.WallSec += end.Sub(ready).Seconds()
		rr.Instr += sr.instr()
		b, err := json.Marshal(res)
		if err != nil {
			rr.fail("%s: encode result: %v", sr.Label, err)
		}
		h.Write(b)
	}
	rr.JobMs = []float64{ms(time.Since(start))}
	rr.CPUSec, rr.RSSMB = usage()
	rr.Runtime = readRuntime()
	rr.Digest = hex.EncodeToString(h.Sum(nil))
	return rr
}

// setupRep only sets up what an end-to-end rep of w sets up — the first
// simulation's system, or the cluster — and reports how long that took
// from process start.
func setupRep(ctx context.Context, w *workload, seed int64, b budget, t0 time.Time) repResult {
	rr := repResult{Kind: kindSetup, Ops: 1}
	if w.Kind == kindJobs {
		_, stop, err := startCluster(ctx)
		if err != nil {
			rr.fail("%v", err)
			return rr
		}
		rr.SetupSec = time.Since(t0).Seconds()
		stop()
		return rr
	}
	sr := w.Sims(seed, b)[0]
	sim.New(sr.Cfg, sr.Progs)
	rr.SetupSec = time.Since(t0).Seconds()
	return rr
}

// checkResult is a sanity check on a simulated result: every core ran
// its window at no better than one instruction per cycle, and the LLC's
// reads split into hits and misses.
func checkResult(sr simRun, r sim.Result) error {
	if len(r.Cores) != sr.Cfg.Cores {
		return fmt.Errorf("%d core results for %d cores", len(r.Cores), sr.Cfg.Cores)
	}
	for i, c := range r.Cores {
		if c.Instructions < sr.Cfg.MeasureInstr || c.Cycles < c.Instructions {
			return fmt.Errorf("core %d: %d instructions in %d cycles for a %d-instruction window",
				i, c.Instructions, c.Cycles, sr.Cfg.MeasureInstr)
		}
	}
	if s := r.LLCStats; s.Hits+s.Misses != s.Reads {
		return fmt.Errorf("LLC: %d hits + %d misses != %d reads", s.Hits, s.Misses, s.Reads)
	}
	if r.CompRatio <= 0 {
		return fmt.Errorf("compression ratio %g", r.CompRatio)
	}
	return nil
}

// tracedRep replays each simulation with a span around every layer
// call, between two untraced runs of it on the real simulator; the
// replay must reproduce the simulator's counters exactly. The untraced
// time is the two runs' mean and the span cost is calibrated before and
// after the replays, so host speed drifting linearly over the rep drops
// out of comparing them. The rep then replays the LLC's line stream
// through the codecs.
func tracedRep(ctx context.Context, runs []simRun) repResult {
	rr := repResult{Kind: kindTraced, Ops: 1}
	lr := &layerReport{}
	inside, whole := spanCost()
	clk := newSpanClock()
	lines := newLineLog(codecLines)
	for _, sr := range runs {
		res, before, err := untracedRun(ctx, sr)
		if err != nil {
			rr.fail("%s: %v", sr.Label, err)
			return rr
		}
		rp, err := newReplay(sr.Cfg, sr.Progs, clk, lines)
		if err != nil {
			rr.fail("%s: %v", sr.Label, err)
			return rr
		}
		start := time.Now()
		cnt := rp.run()
		lr.WallNs += float64(time.Since(start))
		_, after, err := untracedRun(ctx, sr)
		if err != nil {
			rr.fail("%s: %v", sr.Label, err)
			return rr
		}
		lr.UntracedNs += (before + after) / 2
		lr.Instr += sr.instr()
		if !cnt.equal(resultCounters(res)) {
			rr.fail("%s: traced replay's counters differ from the simulator's", sr.Label)
			return rr
		}
		for _, c := range cnt.Cores {
			lr.L1Refs += c.Refs
			lr.L1Misses += c.L1Misses
		}
		lr.LLCReads += cnt.LLC.Reads
		lr.LLCHits += cnt.LLC.Hits
		reads, queue := rp.memWindow()
		lr.MemReads += reads
		lr.MemQueue += queue
	}
	lr.Calls, lr.RawNs = clk.calls, clk.ns
	inside2, whole2 := spanCost()
	lr.SpanInsideNs, lr.SpanWholeNs = (inside+inside2)/2, (whole+whole2)/2
	lr.Codec = codecReplay(lines, coreConfig(runs[0].Cfg), clk)
	rr.Layers = lr
	if err := lr.accounted(); err != nil {
		rr.fail("%v", err)
	}
	return rr
}

// untracedRun runs one simulation on the real simulator and returns its
// result and how many ns the run took, set-up excluded.
func untracedRun(ctx context.Context, sr simRun) (sim.Result, float64, error) {
	s := sim.New(sr.Cfg, sr.Progs)
	start := time.Now()
	res, err := s.RunCtx(ctx)
	return res, float64(time.Since(start)), err
}

// coreConfig is the MORC configuration an LLC of cfg's capacity uses;
// the codec replay runs it on every workload's line stream.
func coreConfig(cfg sim.Config) core.Config {
	if cfg.MORCConfig != nil {
		return *cfg.MORCConfig
	}
	return core.DefaultConfig(cfg.LLCBytesPerCore * cfg.Cores)
}

// usage returns the process's user+sys CPU seconds and peak RSS in MB.
func usage() (cpuSec, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu.Seconds(), float64(ru.Maxrss) / 1024 // Linux reports Maxrss in KiB
}

func readRuntime() *runtimeStats {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	rs := &runtimeStats{
		Allocs:     float64(samples[3].Value.Uint64()),
		AllocBytes: float64(samples[4].Value.Uint64()),
	}
	if used := samples[1].Value.Float64() - samples[2].Value.Float64(); used > 0 {
		rs.GCCPUFrac = samples[0].Value.Float64() / used
	}
	return rs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
