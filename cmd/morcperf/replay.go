package main

import (
	"errors"
	"runtime"
	"slices"
	"time"

	"morc/internal/cache"
	"morc/internal/compress/lbe"
	"morc/internal/compress/tagdelta"
	"morc/internal/core"
	"morc/internal/mem"
	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

// The simulator layers a traced rep attributes host time to. Each is a
// set of public calls sim.System makes; the replay below wraps every
// one of them in a span.
const (
	layTraceNext    = iota // trace.SynthGen.Next
	layTraceMemory         // trace.Memory ReadLine, WriteLine, ApplyStore
	layL1                  // cache.SetAssoc Read, Fill, Update on a private L1
	layLLCRead             // cache.LLC Read
	layLLCFill             // cache.LLC Fill
	layLLCWriteBack        // cache.LLC WriteBack
	layLLCRatio            // cache.LLC Ratio (compression-ratio sampling)
	layMem                 // mem.Controller Read, Write
	numLayers
)

var layerNames = [numLayers]string{
	"trace.next", "trace.memory", "cache.l1", "llc.read",
	"llc.fill", "llc.writeback", "llc.ratio", "mem",
}

// spanClock accumulates per-layer span time: a monotonic clock read
// before and after each call into a layer.
type spanClock struct {
	base  time.Time
	ns    [numLayers]int64
	calls [numLayers]int64
}

func newSpanClock() *spanClock { return &spanClock{base: time.Now()} }

func (k *spanClock) now() int64 { return int64(time.Since(k.base)) }

func (k *spanClock) end(layer int, start int64) {
	k.ns[layer] += k.now() - start
	k.calls[layer]++
}

// spanCost measures what a span costs: inside is the part of an empty
// span's measured duration that its own clock reads add, whole is what
// one span adds to the traced run's wall time. Each is the median over
// batches of a per-span mean, taken on a throwaway clock.
func spanCost() (inside, whole float64) {
	const batches, spans = 9, 1 << 17
	var ins, wholes []float64
	for range batches {
		k := newSpanClock()
		start := time.Now()
		for range spans {
			t := k.now()
			k.end(layMem, t)
		}
		wholes = append(wholes, float64(time.Since(start))/spans)
		ins = append(ins, float64(k.ns[layMem])/spans)
	}
	return median(ins), median(wholes)
}

// counters are the simulated statistics a traced replay must reproduce
// exactly: per-core window counts, the LLC window delta, memory traffic
// and the sampled compression ratio.
type counters struct {
	Cores     []coreCounters `json:"cores"`
	LLC       cache.Stats    `json:"llc"`
	MemBytes  uint64         `json:"mem_bytes"`
	CompRatio float64        `json:"comp_ratio"`
}

type coreCounters struct {
	Instructions, Cycles, Refs, L1Misses, StallCycles uint64
}

func resultCounters(r sim.Result) counters {
	c := counters{LLC: r.LLCStats, MemBytes: r.MemBytes, CompRatio: r.CompRatio}
	for _, cr := range r.Cores {
		c.Cores = append(c.Cores, coreCounters{cr.Instructions, cr.Cycles, cr.Refs, cr.L1Misses, cr.StallCycles})
	}
	return c
}

func (c counters) equal(o counters) bool {
	return slices.Equal(c.Cores, o.Cores) && c.LLC == o.LLC && c.MemBytes == o.MemBytes && c.CompRatio == o.CompRatio
}

// replayCore is one core's state, as sim's coreState keeps it.
type replayCore struct {
	gen                   *trace.SynthGen
	memv                  *trace.Memory
	l1                    *cache.SetAssoc
	now, instr, target    uint64
	refs, l1Misses, stall uint64
	startCyc, startInst   uint64
}

// replay re-drives sim.System's loop — oldest-core pick, warm-up then
// measurement targets, SampleEvery ratio sampling — over the public
// APIs of the layers it is built from, timing every call. It must
// reproduce sim.Result's counters exactly; the tests and every traced
// rep check that it does.
type replay struct {
	cfg       sim.Config
	cores     []*replayCore
	llc       cache.LLC
	memctl    *mem.Controller
	ratio     *stats.Sampler
	sampleAt  uint64
	measuring bool
	llcSnap   cache.Stats
	memSnap   mem.Stats
	clk       *spanClock
	lines     *lineLog
}

// newReplay builds the system sim.New would build for cfg and progs.
// Sampled runs and link compression change what sim simulates and are
// not replayed.
func newReplay(cfg sim.Config, progs []trace.Profile, clk *spanClock, lines *lineLog) (*replay, error) {
	if cfg.Sampling.Enabled() || cfg.LinkCompression {
		return nil, errors.New("replay: sampled runs and link compression are not replayed")
	}
	if len(progs) != cfg.Cores {
		return nil, errors.New("replay: one program per core required")
	}
	r := &replay{
		cfg: cfg,
		llc: cfg.NewLLC(),
		memctl: mem.NewController(mem.Config{
			ClockHz:              cfg.ClockHz,
			BandwidthBytesPerSec: cfg.BWPerCore * float64(cfg.Cores),
			AccessLatency:        cfg.MemLatency,
		}),
		ratio: stats.NewSampler(cfg.SampleEvery),
		clk:   clk,
		lines: lines,
	}
	for _, p := range progs {
		r.cores = append(r.cores, &replayCore{
			gen:  trace.NewSynthGen(p),
			memv: trace.NewMemory(p),
			l1:   cache.NewSetAssoc(cfg.L1Bytes, cfg.L1Ways, cache.LRU),
		})
	}
	return r, nil
}

// run replays warm-up and measurement and returns the window counters.
func (r *replay) run() counters {
	for _, c := range r.cores {
		c.target = r.cfg.WarmupInstr
	}
	r.runPhase()
	r.beginMeasurement()
	for _, c := range r.cores {
		c.target = c.instr + r.cfg.MeasureInstr
	}
	r.runPhase()
	t := r.clk.now()
	ratio := r.llc.Ratio()
	r.clk.end(layLLCRatio, t)
	r.ratio.ForceSample(ratio)

	out := counters{CompRatio: r.ratio.Mean()}
	for _, c := range r.cores {
		out.Cores = append(out.Cores, coreCounters{
			Instructions: c.instr - c.startInst,
			Cycles:       c.now - c.startCyc,
			Refs:         c.refs,
			L1Misses:     c.l1Misses,
			StallCycles:  c.stall,
		})
	}
	ls := *r.llc.Stats()
	out.LLC = cache.Stats{
		Reads:        ls.Reads - r.llcSnap.Reads,
		Hits:         ls.Hits - r.llcSnap.Hits,
		Misses:       ls.Misses - r.llcSnap.Misses,
		Fills:        ls.Fills - r.llcSnap.Fills,
		WriteBacks:   ls.WriteBacks - r.llcSnap.WriteBacks,
		MemWBs:       ls.MemWBs - r.llcSnap.MemWBs,
		ExtraCycles:  ls.ExtraCycles - r.llcSnap.ExtraCycles,
		Compressions: ls.Compressions - r.llcSnap.Compressions,
		Decompressed: ls.Decompressed - r.llcSnap.Decompressed,
	}
	ms := r.memctl.Stats()
	out.MemBytes = ms.TotalBytes() - r.memSnap.TotalBytes()
	return out
}

// memWindow returns the memory controller's measurement-window reads
// and queueing cycles.
func (r *replay) memWindow() (reads, queueCycles uint64) {
	ms := r.memctl.Stats()
	return ms.Reads - r.memSnap.Reads, ms.QueueCycles - r.memSnap.QueueCycles
}

func (r *replay) beginMeasurement() {
	r.llcSnap = *r.llc.Stats()
	r.memSnap = *r.memctl.Stats()
	r.ratio = stats.NewSampler(r.cfg.SampleEvery)
	r.sampleAt = 0
	for _, c := range r.cores {
		c.startCyc, c.startInst = c.now, c.instr
		c.refs, c.l1Misses, c.stall = 0, 0, 0
		r.sampleAt += c.instr
	}
	r.measuring = true
}

func (r *replay) runPhase() {
	for {
		var pick *replayCore
		for _, c := range r.cores {
			if c.instr < c.target && (pick == nil || c.now < pick.now) {
				pick = c
			}
		}
		if pick == nil {
			return
		}
		r.step(pick)
		if r.measuring {
			var total uint64
			for _, c := range r.cores {
				total += c.instr
			}
			if meas := total - r.sampleAt; r.ratio.Due(meas) {
				t := r.clk.now()
				ratio := r.llc.Ratio()
				r.clk.end(layLLCRatio, t)
				r.ratio.Tick(meas, ratio)
			}
		}
	}
}

// step is one access: sim's stepAccess and, on an L1 miss, serviceMiss.
func (r *replay) step(c *replayCore) {
	k := r.clk
	t := k.now()
	a := c.gen.Next()
	k.end(layTraceNext, t)
	c.now += uint64(a.NonMem) + 1
	c.instr += a.Instructions()
	c.refs++

	t = k.now()
	res := c.l1.Read(a.Addr)
	k.end(layL1, t)
	store := a.Kind == trace.Store
	if res.Hit {
		if store {
			mutated := cache.CloneLine(res.Data)
			t = k.now()
			c.memv.ApplyStore(mutated, a.Addr)
			k.end(layTraceMemory, t)
			t = k.now()
			c.l1.Update(a.Addr, mutated, true)
			k.end(layL1, t)
		}
		return
	}

	data, lat := r.llcAccess(c, a.Addr, store)
	if store {
		data = cache.CloneLine(data)
		t = k.now()
		c.memv.ApplyStore(data, a.Addr)
		k.end(layTraceMemory, t)
	}
	r.l1Insert(c, a.Addr, data, store)
	c.now += lat
	c.stall += lat
	c.l1Misses++
}

// llcAccess is sim's: an LLC lookup, then memory and a fill on a miss.
// Store misses do not allocate in a non-inclusive LLC.
func (r *replay) llcAccess(c *replayCore, addr uint64, store bool) ([]byte, uint64) {
	k := r.clk
	t := k.now()
	res := r.llc.Read(addr)
	k.end(layLLCRead, t)
	lat := uint64(r.cfg.LLCLatency) + uint64(res.ExtraCycles)
	if res.Hit {
		return res.Data, lat
	}
	t = k.now()
	data := c.memv.ReadLine(addr)
	k.end(layTraceMemory, t)
	t = k.now()
	done := r.memctl.Read(c.now+lat, addr, cache.LineSize)
	k.end(layMem, t)
	lat = done - c.now
	if !store || r.cfg.Inclusive {
		r.lines.add(addr, data)
		t = k.now()
		wbs := r.llc.Fill(addr, data)
		k.end(layLLCFill, t)
		r.memWrites(c, wbs)
	}
	return data, lat
}

// l1Insert fills the private L1 and forwards dirty victims to the LLC.
func (r *replay) l1Insert(c *replayCore, addr uint64, data []byte, dirty bool) {
	k := r.clk
	t := k.now()
	wbs := c.l1.Fill(addr, data)
	k.end(layL1, t)
	if dirty {
		t = k.now()
		c.l1.Update(addr, data, true)
		k.end(layL1, t)
	}
	for _, wb := range wbs {
		r.lines.add(wb.Addr, wb.Data)
		t = k.now()
		evicted := r.llc.WriteBack(wb.Addr, wb.Data)
		k.end(layLLCWriteBack, t)
		r.memWrites(c, evicted)
	}
}

// memWrites sends LLC-evicted dirty lines to the backing store and the
// memory channel.
func (r *replay) memWrites(c *replayCore, wbs []cache.Writeback) {
	k := r.clk
	for _, wb := range wbs {
		t := k.now()
		c.memv.WriteLine(wb.Addr, wb.Data)
		k.end(layTraceMemory, t)
		t = k.now()
		r.memctl.Write(c.now, wb.Addr, cache.LineSize)
		k.end(layMem, t)
	}
}

// lineLog records the (addr, line) stream the LLC receives through Fill
// and WriteBack, up to a fixed number of lines, for the codec replay.
type lineLog struct {
	addrs []uint64
	data  []byte
}

func newLineLog(lines int) *lineLog {
	return &lineLog{addrs: make([]uint64, 0, lines), data: make([]byte, 0, lines*cache.LineSize)}
}

func (g *lineLog) add(addr uint64, line []byte) {
	if len(g.addrs) < cap(g.addrs) {
		g.addrs = append(g.addrs, addr)
		g.data = append(g.data, line...)
	}
}

// codecReport is the codec kernel replay: span totals for LBE trial
// compression and commit and for tag-delta trial sizing, and the heap
// allocations of sampled LBE trials.
type codecReport struct {
	AppendCalls  int64  `json:"append_calls"`
	AppendNs     int64  `json:"append_ns"`
	CommitCalls  int64  `json:"commit_calls"`
	CommitNs     int64  `json:"commit_ns"`
	TrialCalls   int64  `json:"trial_calls"`
	TrialNs      int64  `json:"trial_ns"`
	AllocSamples int64  `json:"alloc_samples"`
	Allocs       uint64 `json:"allocs"`
}

// codecReplay replays the recorded LLC line stream through MORC's codecs
// as one log after another: each line is trial-compressed
// (lbe.Encoder.Append, tagdelta.Stream.TrialBits) and committed, and a
// fresh encoder and tag stream start whenever the line would overflow
// the log. A second pass counts the allocations of every 16th trial;
// it is separate because runtime.ReadMemStats stops the world.
func codecReplay(g *lineLog, mc core.Config, k *spanClock) codecReport {
	rep := codecPass(g, mc, k, 0)
	allocs := codecPass(g, mc, k, 16)
	rep.AllocSamples, rep.Allocs = allocs.AllocSamples, allocs.Allocs
	return rep
}

func codecPass(g *lineLog, mc core.Config, k *spanClock, allocEvery int) codecReport {
	var rep codecReport
	var ms runtime.MemStats
	enc, tags := lbe.NewEncoder(mc.LBE), tagdelta.NewStream(mc.Tag)
	appendLine := func(i int, line []byte) *lbe.Pending {
		if allocEvery > 0 && i%allocEvery == 0 {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			p := enc.Append(line)
			runtime.ReadMemStats(&ms)
			rep.Allocs += ms.Mallocs - before
			rep.AllocSamples++
			return p
		}
		t := k.now()
		p := enc.Append(line)
		rep.AppendNs += k.now() - t
		rep.AppendCalls++
		return p
	}
	for i, addr := range g.addrs {
		line := g.data[i*cache.LineSize : (i+1)*cache.LineSize]
		tag := cache.LineTag(addr)
		p := appendLine(i, line)
		t := k.now()
		tagBits := tags.TrialBits(tag)
		rep.TrialNs += k.now() - t
		rep.TrialCalls++
		if enc.Bits()+p.Bits() > mc.LogBytes*8 || tags.Bits()+tagBits > mc.TagBytesPerLog*8 {
			enc, tags = lbe.NewEncoder(mc.LBE), tagdelta.NewStream(mc.Tag)
			p = appendLine(i, line)
		}
		t = k.now()
		enc.Commit(p)
		rep.CommitNs += k.now() - t
		rep.CommitCalls++
		tags.Append(tag)
	}
	return rep
}
