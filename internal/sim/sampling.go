package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"morc/internal/cache"
	"morc/internal/mem"
	"morc/internal/sample"
	"morc/internal/stats"
	"morc/internal/telemetry"
	"morc/internal/trace"
)

// DefaultSamplingClusters is the k used when SamplingConfig.MaxClusters
// is 0.
const DefaultSamplingClusters = 8

// errSamplingDegenerate signals RunCtx that clustering put every
// interval in its own cluster, so the run should use the full-fidelity
// path instead (Result.Sampling stays nil).
var errSamplingDegenerate = errors.New("sim: sampling schedule covers every interval")

// SamplingConfig enables representative-interval sampling: instead of
// simulating the whole measurement window at full fidelity, the run is
// profiled into IntervalInstr-long intervals (morc/internal/sample),
// clustered by behavior signature, and only one representative interval
// per cluster is simulated in detail; the Result is extrapolated with
// cluster-population weights and carries a SamplingInfo describing the
// schedule and estimated error. Field names are deliberately plain so
// morcd config overrides ({"Sampling":{"IntervalInstr":...}}) mirror the
// rest of sim.Config.
type SamplingConfig struct {
	// IntervalInstr is the per-core interval length in instructions;
	// 0 disables sampling entirely. The measurement window is cut into
	// floor(MeasureInstr/IntervalInstr) intervals; a remainder shorter
	// than one interval is not simulated, and extrapolated counters are
	// scaled up to the full window. If fewer than two intervals fit, the
	// run silently falls back to full fidelity (Result.Sampling == nil).
	IntervalInstr uint64
	// MaxClusters is the k-means k (0 = DefaultSamplingClusters). The
	// detailed cost grows linearly with it; the error shrinks.
	MaxClusters int
	// ReplayInstr is the detailed cache-warmup replay simulated before
	// every representative window after the first (the first window is
	// reached by detailed simulation from instruction 0, covering the
	// run's full WarmupInstr). 0 = IntervalInstr/2.
	ReplayInstr uint64
	// Seed seeds the k-means clustering. Identical (workload, Config,
	// Seed) runs produce byte-identical Results, exactly like full runs.
	Seed uint64
}

// Enabled reports whether sampling is requested at all.
func (c SamplingConfig) Enabled() bool { return c.IntervalInstr > 0 }

// Validate rejects nonsensical knobs; RunCtx calls it at run start and
// morcd at submit time.
func (c SamplingConfig) Validate() error {
	if c.MaxClusters < 0 {
		return fmt.Errorf("sim: negative sampling MaxClusters %d", c.MaxClusters)
	}
	return nil
}

// SamplingWindow describes one simulated representative window on
// SamplingInfo: which interval it was, how many intervals it stands in
// for, and the headline metrics it measured — enough for a failing
// error-bound test to print the worst interval.
type SamplingWindow struct {
	// Interval is the representative's interval index (0-based within
	// the measurement window).
	Interval int
	// Population is the cluster size; Weight its fraction of all
	// intervals.
	Population int
	Weight     float64
	// Window metrics at full fidelity (per-core gmean IPC, LLC miss
	// rate, mean compression ratio).
	IPC       float64
	MissRate  float64
	CompRatio float64
}

// SamplingInfo is attached to Result.Sampling on sampled runs: the
// schedule, the simulated-instruction accounting behind the speedup
// claim, and the profiling pass's per-metric error estimates.
type SamplingInfo struct {
	IntervalInstr uint64
	// Intervals is how many intervals the window was cut into; Clusters
	// how many representatives were simulated in detail.
	Intervals int
	Clusters  int
	// KMeansIters / Converged report the clustering fixed point.
	KMeansIters int
	Converged   bool
	Windows     []SamplingWindow
	// DetailedInstr counts instructions simulated at full fidelity
	// (relocated warmup + replays + measured windows, all cores);
	// EquivalentInstr is what a full run would have simulated
	// (cores × (warmup + measure)); SpeedupX their ratio — the
	// instruction-reduction factor. ProfiledInstr is the functional
	// profiling pass's instruction count, disclosed separately because
	// a functional instruction costs far less than a detailed one.
	DetailedInstr   uint64
	EquivalentInstr uint64
	ProfiledInstr   uint64
	SpeedupX        float64
	// ErrorBars are the profiling pass's per-metric relative-error
	// estimates (population-weighted within-cluster spread). The hard
	// bound is pinned empirically by internal/check against full runs.
	ErrorBars sample.ErrorBars
}

// sampledIntervals returns how many whole intervals fit in the
// measurement window (0 when sampling is disabled).
func (cfg Config) sampledIntervals() int {
	if !cfg.Sampling.Enabled() {
		return 0
	}
	return int(cfg.MeasureInstr / cfg.Sampling.IntervalInstr)
}

// runSampled executes the sampled run: profile → cluster → replay each
// representative window at full fidelity in one forward pass →
// extrapolate. Caller guarantees sampledIntervals() >= 2.
func (s *System) runSampled(ctx context.Context) (Result, error) {
	cfg := s.cfg
	L := cfg.Sampling.IntervalInstr
	n := cfg.sampledIntervals()
	k := cfg.Sampling.MaxClusters
	if k == 0 {
		k = DefaultSamplingClusters
	}
	replay := cfg.Sampling.ReplayInstr
	if replay == 0 {
		replay = L / 2
	}

	prof, err := sample.Cached(ctx, sample.Spec{
		Programs:      s.programs,
		L1Bytes:       cfg.L1Bytes,
		L1Ways:        cfg.L1Ways,
		LLCBytes:      cfg.LLCBytesPerCore * cfg.Cores,
		WarmupInstr:   cfg.WarmupInstr,
		IntervalInstr: L,
		Intervals:     n,
	})
	if err != nil {
		return Result{}, err
	}
	plan := sample.Cluster(prof.Signatures, k, cfg.Sampling.Seed)
	if plan.K == 0 {
		return Result{}, fmt.Errorf("sim: sampling produced no clusters")
	}
	// Every interval its own cluster: the schedule would simulate the
	// whole window anyway, so sampling saves nothing — and on multi-core
	// runs the extra phase barriers at window boundaries perturb the
	// shared memory channel's arrival order, making the "estimate"
	// strictly worse than the full run it fails to shortcut. Fall back.
	if plan.K >= n {
		return Result{}, errSamplingDegenerate
	}

	var st *sampledTelemetry
	if cfg.Telemetry.Enabled() {
		st = &sampledTelemetry{scheme: cfg.Scheme.String(), every: cfg.Telemetry.Every, onEpoch: s.OnEpoch}
	}

	// Lay out the detailed schedule. Every representative window [startB,
	// endB) needs ReplayInstr of detailed cache warmup before it; the
	// first window is instead reached by detailed simulation from
	// instruction 0 — the full warmup plus any intervals before its
	// representative — never by fast-forward: skipped instructions are
	// skipped cache fills, and the occupancy ratio would start the
	// schedule in deficit (Cluster's endpoint-anchor rule makes the first
	// representative interval 0 in the common case, so this usually costs
	// nothing beyond the warmup a full run pays anyway). Overlapping and
	// adjacent coverage merges into segments, each simulated as ONE
	// uninterrupted phase with per-window measurements snapshotted at the
	// boundaries. Merging matters on multi-core runs: a phase boundary is
	// a global barrier, and re-synchronizing the cores mid-measurement
	// perturbs the shared memory channel's arrival order enough to bias
	// contended mixes by over 10%. The only mid-segment barrier ever
	// taken is the warmup→measurement one the full run also has.
	type segWindow struct {
		rep          int
		startB, endB uint64
	}
	type segment struct {
		lo, hi  uint64
		windows []segWindow
	}
	var segs []segment
	for i, rep := range plan.Reps {
		w := segWindow{
			rep:    rep,
			startB: cfg.WarmupInstr + uint64(rep)*L,
		}
		w.endB = w.startB + L
		lo := uint64(0)
		if i > 0 && replay < w.startB {
			lo = w.startB - replay
		}
		if li := len(segs) - 1; li >= 0 && lo <= segs[li].hi {
			segs[li].hi = w.endB
			segs[li].windows = append(segs[li].windows, w)
		} else {
			segs = append(segs, segment{lo: lo, hi: w.endB, windows: []segWindow{w}})
		}
	}

	var detailed uint64
	var epochs []telemetry.Epoch
	wins := make([]winDelta, 0, plan.K)
	anchors := make([]ratioAnchor, 0, plan.K)
	winSeq := 0
	for _, seg := range segs {
		for _, c := range s.cores {
			if c.instr < seg.lo {
				s.emitPhase("fastforward", -1, -1)
				break
			}
		}
		if err := s.fastForward(ctx, seg.lo); err != nil {
			return Result{}, err
		}
		before := s.totalInstr()
		// Reproduce the full run's single warmup→measurement barrier when
		// it falls inside this segment (only the segment that starts at
		// instruction 0 can contain it).
		baseline := seg.lo
		if seg.lo < cfg.WarmupInstr && cfg.WarmupInstr < seg.hi {
			s.emitPhase("warmup", -1, -1)
			s.setTargets(cfg.WarmupInstr)
			if err := s.run(ctx); err != nil {
				return Result{}, err
			}
			baseline = cfg.WarmupInstr
		}
		s.beginMeasurement()
		var telBegin telemetry.Sample
		if st != nil {
			telBegin = s.telemetrySample(0)
		}
		// Arm the boundary snapshots and run the rest of the segment as
		// one phase (the snapshot hook lives in run's hot loop). A window
		// boundary equal to the baseline position needs no snapshot:
		// beginMeasurement's counter resets are its state.
		bounds := make([]uint64, 0, 2*len(seg.windows))
		for _, w := range seg.windows {
			if w.startB > baseline {
				bounds = append(bounds, w.startB)
			}
			bounds = append(bounds, w.endB)
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		bounds = slices.Compact(bounds)
		boundIdx := make(map[uint64]int, len(bounds))
		for j, b := range bounds {
			boundIdx[b] = j
		}
		// Window sequence numbers are global across the run in schedule
		// order, matching SamplingInfo.Windows indexing.
		segSeqs := make([]int, len(seg.windows))
		for i := range segSeqs {
			segSeqs[i] = winSeq
			winSeq++
		}
		// Precompute the OnPhase event each boundary crossing announces:
		// a window start begins a "window" phase, a window end with more
		// of the segment left begins a "replay" gap, and the segment's
		// last boundary begins nothing (the next segment announces its
		// own phases). Window starts win over a coinciding window end.
		phases := make([]PhaseEvent, len(bounds))
		for i, w := range seg.windows {
			if w.startB > baseline {
				phases[boundIdx[w.startB]] = PhaseEvent{Phase: "window", Window: segSeqs[i], Interval: w.rep}
			}
		}
		for _, w := range seg.windows {
			if j := boundIdx[w.endB]; j+1 < len(bounds) && phases[j].Phase == "" {
				phases[j] = PhaseEvent{Phase: "replay", Window: -1, Interval: -1}
			}
		}
		s.snapBounds = bounds
		s.snapCrossed = make([]int, len(bounds))
		s.cuts = make([]segCut, len(bounds))
		s.snapTel = st != nil
		s.boundPhases = phases
		for _, c := range s.cores {
			c.snapAt = bounds[0]
			c.snapIdx = 0
			c.snaps = make([]winSnap, len(bounds))
		}
		// Announce the region the detailed phase starts in: the first
		// window when it begins at the baseline, otherwise the replay
		// leading up to it.
		if first := seg.windows[0]; first.startB > baseline {
			s.emitPhase("replay", -1, -1)
		} else {
			s.emitPhase("window", segSeqs[0], first.rep)
		}
		s.setTargets(seg.hi)
		err := s.run(ctx)
		for _, c := range s.cores {
			c.snapAt = ^uint64(0)
		}
		s.measuring = false
		s.boundPhases = nil
		if err != nil {
			return Result{}, err
		}
		detailed += s.totalInstr() - before
		for j, crossed := range s.snapCrossed {
			if crossed != len(s.cores) {
				return Result{}, fmt.Errorf("sim: %d of %d cores crossed sampled boundary %d", crossed, len(s.cores), j)
			}
		}
		for _, w := range seg.windows {
			cut := s.cuts[boundIdx[w.endB]]
			prevCut := segCut{llc: s.llcSnap, mem: s.memSnap, tel: telBegin}
			startIdx := -1
			if w.startB > baseline {
				startIdx = boundIdx[w.startB]
				prevCut = s.cuts[startIdx]
			}
			wd := winDelta{rep: w.rep, ratio: cut.ratio}
			for _, c := range s.cores {
				prev := winSnap{instr: c.startInst, now: c.startCyc}
				if startIdx >= 0 {
					prev = c.snaps[startIdx]
				}
				cur := c.snaps[boundIdx[w.endB]]
				wd.cores = append(wd.cores, winSnap{
					instr:  cur.instr - prev.instr,
					now:    cur.now - prev.now,
					refs:   cur.refs - prev.refs,
					misses: cur.misses - prev.misses,
					stall:  cur.stall - prev.stall,
					lat:    subHist(cur.lat, prev.lat),
				})
			}
			wd.llc = subCacheStats(cut.llc, prevCut.llc)
			wd.memBytes = cut.mem.TotalBytes() - prevCut.mem.TotalBytes()
			wd.memAccs = (cut.mem.Reads + cut.mem.Writes) - (prevCut.mem.Reads + prevCut.mem.Writes)
			wins = append(wins, wd)
			// The anchor's position is where the cut actually happened on
			// the full run's sample clock: total instructions past warmup,
			// counting fast-forwarded ones (c.instr includes them).
			anchors = append(anchors, ratioAnchor{
				pos:   float64(cut.total) - float64(uint64(len(s.cores))*cfg.WarmupInstr),
				ratio: cut.ratio,
			})
			if st != nil {
				epochs = append(epochs, st.record(len(epochs), prevCut.tel, cut.tel, cut.ratio))
			}
		}
	}

	f := float64(cfg.MeasureInstr) / (float64(n) * float64(L))
	res := s.extrapolate(wins, interpCoeffs(plan.Reps, n), f)
	res.CompRatio = sampledCompRatio(anchors, cfg.SampleEvery, uint64(len(s.cores))*cfg.MeasureInstr)

	info := SamplingInfo{
		IntervalInstr:   L,
		Intervals:       n,
		Clusters:        plan.K,
		KMeansIters:     plan.Iters,
		Converged:       plan.Converged,
		DetailedInstr:   detailed,
		EquivalentInstr: uint64(len(s.cores)) * (cfg.WarmupInstr + cfg.MeasureInstr),
		ProfiledInstr:   prof.Instr,
		ErrorBars:       plan.EstimateErrors(prof.Signatures),
	}
	if detailed > 0 {
		info.SpeedupX = float64(info.EquivalentInstr) / float64(detailed)
	}
	for wi, rep := range plan.Reps {
		w := wins[wi] // wins is flattened in plan.Reps order
		var ipcs []float64
		for _, c := range w.cores {
			var ipc float64
			if c.now > 0 {
				ipc = float64(c.instr) / float64(c.now)
			}
			ipcs = append(ipcs, ipc)
		}
		info.Windows = append(info.Windows, SamplingWindow{
			Interval:   rep,
			Population: plan.Pops[wi],
			Weight:     plan.Weights[wi],
			IPC:        stats.GeoMean(ipcs),
			MissRate:   1 - w.llc.HitRate(),
			CompRatio:  w.ratio,
		})
	}
	res.Sampling = &info
	if st != nil {
		res.Telemetry = &telemetry.Series{Scheme: st.scheme, Every: st.every, Epochs: epochs}
	}
	if s.OnProgress != nil {
		s.OnProgress(s.totalTarget(), s.totalTarget())
	}
	return res, nil
}

// fastForward functionally advances every core to the absolute per-core
// instruction target: the trace generator and the backing-store value
// model run (so later windows see the right addresses and values), but
// no cache, timing, or bandwidth state is touched. Stores are applied
// write-through so the value model's per-store mutation stream stays
// aligned with the access stream.
func (s *System) fastForward(ctx context.Context, target uint64) error {
	done := ctx.Done()
	steps := 0
	for _, c := range s.cores {
		for c.instr < target {
			a := c.gen.Next()
			c.now += uint64(a.NonMem) + 1
			c.instr += a.Instructions()
			if a.Kind == trace.Store {
				line := c.memv.ReadLine(a.Addr)
				c.memv.ApplyStore(line, a.Addr)
				c.memv.WriteLine(a.Addr, line)
			}
			if steps++; steps >= checkEvery {
				steps = 0
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
		}
	}
	return nil
}

// setTargets aims every core at the same absolute per-core instruction
// count. Cores already past it (they may overshoot a phase boundary by
// one access) simply skip the phase.
func (s *System) setTargets(target uint64) {
	for _, c := range s.cores {
		c.target = target
	}
}

// totalInstr sums the cores' instruction counters.
func (s *System) totalInstr() uint64 {
	var t uint64
	for _, c := range s.cores {
		t += c.instr
	}
	return t
}

// winSnap is a snapshot of one core's measurement counters, taken as the
// core crosses a window boundary inside a sampled group phase. The same
// shape doubles as a per-window delta between two snapshots.
type winSnap struct {
	instr, now, refs, misses, stall uint64
	lat                             *stats.Histogram
}

// segCut is a consistent global snapshot taken the moment the LAST core
// crosses a window boundary: consecutive cuts' deltas attribute the
// shared counters (LLC, memory controller) to windows, and telescope
// exactly to the segment phase's totals.
type segCut struct {
	llc   cache.Stats
	mem   mem.Stats
	ratio float64
	// total is totalInstr() at the cut instant. On heterogeneous mixes
	// the leading cores are far past the boundary the laggard just
	// crossed, so this — not cores×boundary — is the cut's position on
	// the full run's total-instruction sample clock.
	total uint64
	tel   telemetry.Sample
}

// winDelta is one representative window's exact measurements, cut out of
// its segment phase: per-core counter deltas between boundary snapshots,
// shared-counter deltas between consistent cuts, and the occupancy ratio
// at the window's end.
type winDelta struct {
	rep      int
	cores    []winSnap
	llc      cache.Stats
	memBytes uint64
	memAccs  uint64
	ratio    float64
}

// windowSnap records core c crossing its next window boundary; the
// sequential run loop calls it whenever c.instr >= c.snapAt. When the
// last core crosses a boundary it also takes that boundary's segCut.
// Snapshot storage is preallocated per segment and filled by index —
// nothing here grows per access.
func (s *System) windowSnap(c *coreState) {
	for c.snapIdx < len(s.snapBounds) && c.instr >= c.snapAt {
		j := c.snapIdx
		c.snaps[j] = winSnap{
			instr:  c.instr,
			now:    c.now,
			refs:   c.refs,
			misses: c.l1Misses,
			stall:  c.stall,
			lat:    cloneHist(c.missLat),
		}
		c.snapIdx++
		if j+1 < len(s.snapBounds) {
			c.snapAt = s.snapBounds[j+1]
		} else {
			c.snapAt = ^uint64(0)
		}
		s.snapCrossed[j]++
		if s.snapCrossed[j] == len(s.cores) {
			s.cuts[j] = segCut{
				llc:   *s.llc.Stats(),
				mem:   *s.memctl.Stats(),
				ratio: s.llc.Ratio(),
				total: s.totalInstr(),
			}
			if s.snapTel {
				s.cuts[j].tel = s.telemetrySample(0)
			}
			// The boundary is globally crossed: announce the region that
			// begins here (a window start or a replay gap), positioned at
			// the cut's consistent instruction count.
			if s.OnPhase != nil && j < len(s.boundPhases) && s.boundPhases[j].Phase != "" {
				ev := s.boundPhases[j]
				ev.Instr = s.cuts[j].total
				s.OnPhase(ev)
			}
		}
	}
}

// cloneHist copies a histogram's mutable state (bounds are shared).
func cloneHist(h *stats.Histogram) *stats.Histogram {
	return &stats.Histogram{
		Bounds: h.Bounds,
		Counts: append([]uint64(nil), h.Counts...),
		Sums:   append([]float64(nil), h.Sums...),
		N:      h.N,
		Sum:    h.Sum,
	}
}

// subHist returns cur - prev bucketwise; a nil prev means "the window
// starts at the group's beginMeasurement reset", i.e. the zero histogram.
func subHist(cur, prev *stats.Histogram) *stats.Histogram {
	d := cloneHist(cur)
	if prev == nil {
		return d
	}
	for b := range d.Counts {
		d.Counts[b] -= prev.Counts[b]
		d.Sums[b] -= prev.Sums[b]
	}
	d.N -= prev.N
	d.Sum -= prev.Sum
	return d
}

// subCacheStats returns the counter delta a - b.
func subCacheStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Reads:        a.Reads - b.Reads,
		Hits:         a.Hits - b.Hits,
		Misses:       a.Misses - b.Misses,
		Fills:        a.Fills - b.Fills,
		WriteBacks:   a.WriteBacks - b.WriteBacks,
		MemWBs:       a.MemWBs - b.MemWBs,
		ExtraCycles:  a.ExtraCycles - b.ExtraCycles,
		Compressions: a.Compressions - b.Compressions,
		Decompressed: a.Decompressed - b.Decompressed,
	}
}

// interpCoeffs returns per-window coefficients that reconstruct the sum
// over all n intervals of a position-interpolated per-interval estimate:
// a simulated interval contributes its own window (coefficient 1); a
// skipped interval contributes a linear blend of its nearest simulated
// neighbors (clamped to the nearest window past the ends). At the tiny
// budgets the golden suite pins, every counter trends with position (the
// cache is still warming), so neighbor interpolation beats substituting
// a cluster representative from elsewhere in the run — clustering's job
// is to SPEND the detailed budget on distinct behaviors, interpolation's
// is to fill the gaps. Coefficients sum to n.
func interpCoeffs(reps []int, n int) []float64 {
	coef := make([]float64, len(reps))
	for w := range coef {
		coef[w] = 1
	}
	for i := 0; i < n; i++ {
		hi := sort.SearchInts(reps, i)
		if hi < len(reps) && reps[hi] == i {
			continue // simulated: counted by its own coefficient
		}
		lo := hi - 1
		switch {
		case lo < 0:
			coef[0]++
		case hi >= len(reps):
			coef[len(reps)-1]++
		default:
			t := float64(i-reps[lo]) / float64(reps[hi]-reps[lo])
			coef[lo] += 1 - t
			coef[hi] += t
		}
	}
	return coef
}

// extrapolate combines the representative windows' deltas into the
// full-window estimate: every additive counter is summed with the
// interpCoeffs window coefficients (then scaled by f, the truncation-
// remainder correction), ratios are recomputed from the extrapolated
// counters, and the per-core latency histograms merge with the same
// weights, so derived metrics (CGMT throughput, AvgGap) come out of the
// identical formulas collect() uses on full runs.
func (s *System) extrapolate(wins []winDelta, coef []float64, f float64) Result {
	res := Result{Scheme: s.cfg.Scheme}

	var ipcs, tputs []float64
	var totalInstrF float64
	for i := range s.cores {
		var instrF, cycF, refsF, missF, stallF float64
		h := stats.NewHistogram(missLatBounds)
		countsF := make([]float64, len(h.Counts))
		for w := range wins {
			p := coef[w]
			c := wins[w].cores[i]
			instrF += p * float64(c.instr)
			cycF += p * float64(c.now)
			refsF += p * float64(c.refs)
			missF += p * float64(c.misses)
			stallF += p * float64(c.stall)
			for b := range countsF {
				countsF[b] += p * float64(c.lat.Counts[b])
				h.Sums[b] += p * c.lat.Sums[b] * f
			}
		}
		instrF *= f
		cycF *= f
		refsF *= f
		missF *= f
		stallF *= f
		for b := range countsF {
			h.Counts[b] = uint64(math.Round(countsF[b] * f))
			h.N += h.Counts[b]
			h.Sum += h.Sums[b]
		}
		cr := CoreResult{
			Instructions:   uint64(math.Round(instrF)),
			Cycles:         uint64(math.Round(cycF)),
			Refs:           uint64(math.Round(refsF)),
			L1Misses:       uint64(math.Round(missF)),
			StallCycles:    uint64(math.Round(stallF)),
			MissLatency:    h,
			AvgMissLatency: h.Mean(),
		}
		if cycF > 0 {
			cr.IPC = instrF / cycF
		}
		compute := cycF - stallF
		if missF > 0 {
			cr.AvgGap = compute / missF
		}
		hidden := float64(s.cfg.Threads-1) * cr.AvgGap
		var residual float64
		for b, cnt := range h.Counts {
			if cnt == 0 {
				continue
			}
			if excess := h.Sums[b] - hidden*float64(cnt); excess > 0 {
				residual += excess
			}
		}
		if tcyc := compute + residual; tcyc > 0 {
			cr.ThroughputIPC = instrF / tcyc
		}
		res.Cores = append(res.Cores, cr)
		totalInstrF += instrF
		ipcs = append(ipcs, cr.IPC)
		tputs = append(tputs, cr.ThroughputIPC)
		if cr.Cycles > res.CompletionCycles {
			res.CompletionCycles = cr.Cycles
		}
	}
	res.IPC = stats.GeoMean(ipcs)
	res.Throughput = stats.GeoMean(tputs)

	// CompRatio is set by runSampled via position interpolation (see
	// sampledCompRatio): occupancy ratio is global cache state that trends
	// with absolute position, not per-interval behavior, so population
	// weighting is the wrong estimator for it.

	var memF, dramF float64
	for w := range wins {
		memF += coef[w] * float64(wins[w].memBytes) * f
		dramF += coef[w] * float64(wins[w].memAccs) * f
	}
	res.MemBytes = uint64(math.Round(memF))
	if totalInstrF > 0 {
		res.GBPerBillionInstr = memF / totalInstrF
	}

	sum := func(get func(cache.Stats) uint64) uint64 {
		var v float64
		for w := range wins {
			v += coef[w] * float64(get(wins[w].llc)) * f
		}
		return uint64(math.Round(v))
	}
	res.LLCStats = cache.Stats{
		Reads:        sum(func(st cache.Stats) uint64 { return st.Reads }),
		Hits:         sum(func(st cache.Stats) uint64 { return st.Hits }),
		Misses:       sum(func(st cache.Stats) uint64 { return st.Misses }),
		Fills:        sum(func(st cache.Stats) uint64 { return st.Fills }),
		WriteBacks:   sum(func(st cache.Stats) uint64 { return st.WriteBacks }),
		MemWBs:       sum(func(st cache.Stats) uint64 { return st.MemWBs }),
		ExtraCycles:  sum(func(st cache.Stats) uint64 { return st.ExtraCycles }),
		Compressions: sum(func(st cache.Stats) uint64 { return st.Compressions }),
		Decompressed: sum(func(st cache.Stats) uint64 { return st.Decompressed }),
	}

	// Energy is linear in events and cycles, so applying the model once
	// to the extrapolated events equals the weighted sum of per-window
	// breakdowns.
	res.Energy = s.energyFor(res, uint64(math.Round(dramF)))
	return res
}

// ratioAnchor pins the LLC occupancy ratio observed at one window's end,
// positioned on the full run's measured-instruction clock (total
// measured instructions across cores at that point of the run).
type ratioAnchor struct{ pos, ratio float64 }

// sampledCompRatio reproduces the full run's CompRatio estimator from
// the window-end anchors. The full run means the occupancy ratio sampled
// every SampleEvery measured instructions plus one forced end-of-run
// sample; occupancy is global cache state that trends with absolute
// position (it climbs until the cache reaches steady state), so a
// population-weighted mean of per-window ratios is biased whenever the
// representatives sit at unrepresentative positions. Instead we evaluate
// the ratio trajectory — piecewise-linear between the window-end
// anchors, clamped flat outside them — at exactly the positions the full
// sampler would have sampled, and take the same mean.
func sampledCompRatio(anchors []ratioAnchor, sampleEvery, totalMeasure uint64) float64 {
	if len(anchors) == 0 || sampleEvery == 0 {
		return 0
	}
	at := func(p float64) float64 {
		if p <= anchors[0].pos {
			return anchors[0].ratio
		}
		for i := 1; i < len(anchors); i++ {
			if p <= anchors[i].pos {
				a, b := anchors[i-1], anchors[i]
				t := (p - a.pos) / (b.pos - a.pos)
				return a.ratio + t*(b.ratio-a.ratio)
			}
		}
		return anchors[len(anchors)-1].ratio
	}
	var sum float64
	n := 0
	for p := sampleEvery; p <= totalMeasure; p += sampleEvery {
		sum += at(float64(p))
		n++
	}
	sum += at(float64(totalMeasure)) // the full run's forced end sample
	n++
	return sum / float64(n)
}

// sampledTelemetry synthesizes the telemetry series of a sampled run:
// one epoch per measured representative window (deltas across that
// window only — fast-forwarded gaps and warmup replays never appear).
// The epoch grid is therefore the window schedule, not Every; Every is
// kept on the Series for self-description.
type sampledTelemetry struct {
	scheme   string
	every    uint64
	onEpoch  func(telemetry.Epoch)
	endInstr uint64
}

// record builds one window epoch from its boundary samples, mirroring
// the Recorder's delta/derivation arithmetic, and returns it (the caller
// owns the epoch slice). ratio is the occupancy at the window-end cut;
// it stands in for the full run's periodic in-window samples, so
// RatioSamples is 1.
func (st *sampledTelemetry) record(seq int, begin, end telemetry.Sample, ratio float64) telemetry.Epoch {
	e := telemetry.Epoch{
		Seq:           seq,
		LLCReads:      end.LLC.Reads - begin.LLC.Reads,
		LLCHits:       end.LLC.Hits - begin.LLC.Hits,
		LLCMisses:     end.LLC.Misses - begin.LLC.Misses,
		Fills:         end.LLC.Fills - begin.LLC.Fills,
		WriteBacks:    end.LLC.WriteBacks - begin.LLC.WriteBacks,
		MemWBs:        end.LLC.MemWBs - begin.LLC.MemWBs,
		MemReadBytes:  end.Mem.ReadBytes - begin.Mem.ReadBytes,
		MemWriteBytes: end.Mem.WriteBytes - begin.Mem.WriteBytes,
		BusyCycles:    end.Mem.BusyCycles - begin.Mem.BusyCycles,
		Probes:        end.Probes,
		CompRatio:     ratio,
		RatioSamples:  1,
	}
	var maxNow, maxPrev uint64
	for i := range end.Cores {
		ce := telemetry.CoreEpoch{
			Instr:  end.Cores[i].Instr - begin.Cores[i].Instr,
			Cycles: end.Cores[i].Cycles - begin.Cores[i].Cycles,
			Stall:  end.Cores[i].Stall - begin.Cores[i].Stall,
		}
		if ce.Cycles > 0 {
			ce.IPC = float64(ce.Instr) / float64(ce.Cycles)
			ce.StallFrac = float64(ce.Stall) / float64(ce.Cycles)
		}
		e.Cores = append(e.Cores, ce)
		e.Instr += ce.Instr
		if end.Cores[i].Cycles > maxNow {
			maxNow = end.Cores[i].Cycles
		}
		if begin.Cores[i].Cycles > maxPrev {
			maxPrev = begin.Cores[i].Cycles
		}
	}
	e.Cycles = maxNow - maxPrev
	if e.LLCReads > 0 {
		e.HitRate = float64(e.LLCHits) / float64(e.LLCReads)
	}
	if e.Cycles > 0 {
		e.BWUtil = float64(e.BusyCycles) / float64(e.Cycles)
	}
	st.endInstr += e.Instr
	e.EndInstr = st.endInstr
	if st.onEpoch != nil {
		st.onEpoch(e)
	}
	return e
}
