package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef is one reported metric. Bound, for an end-to-end metric, is
// the share of the parent's value by which it may get worse before a
// change counts as a regression.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEndDefs are what a user of the simulator or the job service
// sees, measured with tracing off. The bounds are wide because the
// 2-CPU host they were set on drifts by ±15-35% in speed over minutes,
// more than the host-speed probe (host.go) takes out, so run medians of
// one commit spread by up to 18% (README.md).
var endToEndDefs = []metricDef{
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"host_cpu_s_per_minstr", "s/Minstr", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p90_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
}

// perLayerDefs are the traced rep's attribution of host time, plus the
// layer counts and ratios an optimization is likely to move.
var perLayerDefs = func() []metricDef {
	var out []metricDef
	for _, l := range layerNames {
		out = append(out,
			metricDef{Name: l + ".ns_per_call", Unit: "ns", Better: "lower"},
			metricDef{Name: l + ".calls_per_kinstr", Unit: "1/kinstr", Better: "lower"},
			metricDef{Name: l + ".share", Unit: "fraction", Better: "lower"})
	}
	out = append(out,
		metricDef{Name: "sim.self.ns_per_kinstr", Unit: "ns/kinstr", Better: "lower"},
		metricDef{Name: "cache.l1.hit_ratio", Unit: "fraction", Better: "higher"},
		metricDef{Name: "llc.hit_ratio", Unit: "fraction", Better: "higher"},
		metricDef{Name: "mem.queue_cycles_per_read", Unit: "cycles", Better: "lower"},
		metricDef{Name: "runtime.gc_cpu_frac", Unit: "fraction", Better: "lower"},
		metricDef{Name: "runtime.allocs_per_kinstr", Unit: "1/kinstr", Better: "lower"},
		metricDef{Name: "runtime.alloc_bytes_per_kinstr", Unit: "B/kinstr", Better: "lower"},
		metricDef{Name: "tracing.overhead_x", Unit: "x", Better: "lower"},
		metricDef{Name: "lbe.append.ns_per_call", Unit: "ns", Better: "lower"},
		metricDef{Name: "lbe.append.allocs_per_call", Unit: "count", Better: "lower"},
		metricDef{Name: "lbe.commit.ns_per_call", Unit: "ns", Better: "lower"},
		metricDef{Name: "tagdelta.trial.ns_per_call", Unit: "ns", Better: "lower"})
	for _, s := range spanMetricNames() {
		out = append(out, metricDef{Name: s + ".p50_ms", Unit: "ms", Better: "lower"})
	}
	return out
}()

// spanMetricNames are the job-path spans, in the order they occur.
func spanMetricNames() []string {
	return append(clientSpans[:], "cluster.queue", "cluster.dispatch", "server.queue", "server.run")
}

// summary is one end-to-end metric over a run: its per-rep samples,
// their quartiles, and the metric's value, which is their median —
// except for peak_rss_mb, whose value is the smallest rep's peak: the
// memory the workload needed. How far a rep's heap overshoots that
// depends on when GC got a CPU on a saturated host; on jobs-cluster it
// varies from rep to rep by half.
type summary struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// endToEnd aggregates one workload's end-to-end reps, plus the set-up
// times of its set-up-only reps. Job latency percentiles are taken per
// rep, over that rep's simulations or jobs. Times of host CPU work are
// in reference-host seconds (host.go): set-up, CPU time, and a sim
// rep's wall time. A jobs rep's wall time stays in host seconds: most
// of it is the service's fixed poll intervals, which a slow host does
// not stretch.
func endToEnd(reps, setups []repResult) map[string]summary {
	perRep := map[string][]float64{}
	add := func(name string, v float64) { perRep[name] = append(perRep[name], v) }
	for _, r := range setups {
		add("setup_s", r.SetupSec*r.hostScale())
	}
	for _, r := range reps {
		minstr := r.Instr / 1e6
		f := r.hostScale()
		wallF := 1.0
		if r.Kind == kindSim {
			wallF = f
		}
		wall := r.WallSec * wallF
		add("setup_s", r.SetupSec*f)
		add("sim_minstr_per_s", minstr/wall)
		add("host_cpu_s_per_minstr", r.CPUSec*f/minstr)
		add("peak_rss_mb", r.RSSMB)
		add("job_p50_ms", percentile(r.JobMs, 0.50)*wallF)
		add("job_p90_ms", percentile(r.JobMs, 0.90)*wallF)
		add("jobs_per_s", float64(len(r.JobMs))/wall)
	}
	out := map[string]summary{}
	for _, d := range endToEndDefs {
		samples := perRep[d.Name]
		q1, med, q3 := quartiles(samples)
		s := summary{Unit: d.Unit, Better: d.Better, Bound: d.Bound, Value: med, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
		if d.Name == "peak_rss_mb" {
			s.Value = slices.Min(samples)
		}
		out[d.Name] = s
	}
	return out
}

// perLayer aggregates a workload's per-layer metrics: layer attribution
// and tracing overhead from its traced rep, runtime totals from its
// untraced sim reps, and job-path span medians from its jobs reps.
func perLayer(simReps []repResult, traced *repResult, jobReps []repResult) map[string]float64 {
	m := map[string]float64{}
	if traced != nil {
		for k, v := range layerMetrics(traced.Layers) {
			m[k] = v
		}
	}
	var gc, allocs, allocBytes []float64
	for _, r := range simReps {
		kinstr := r.Instr / 1000
		gc = append(gc, r.Runtime.GCCPUFrac)
		allocs = append(allocs, r.Runtime.Allocs/kinstr)
		allocBytes = append(allocBytes, r.Runtime.AllocBytes/kinstr)
	}
	if len(simReps) > 0 {
		m["runtime.gc_cpu_frac"] = median(gc)
		m["runtime.allocs_per_kinstr"] = median(allocs)
		m["runtime.alloc_bytes_per_kinstr"] = median(allocBytes)
	}
	for _, name := range spanMetricNames() {
		var all []float64
		for _, r := range jobReps {
			all = append(all, r.Spans[name]...)
		}
		if len(all) > 0 {
			m[name+".p50_ms"] = percentile(all, 0.50)
		}
	}
	return m
}

// accountTolerance is how far, as a share of the traced wall time, the
// time a traced rep attributes — every layer's self time plus the
// loop's — may miss the untraced runs of the same simulations before
// the attribution counts as wrong. Host drift between the traced and
// untraced runs alone moved the miss between -9% and +20% (README.md).
const accountTolerance = 1.0 / 3

// minAccountedNs is the least untraced time accounted checks. Shorter
// runs are dominated by one-off costs the span model does not describe,
// such as a GC cycle or the first touches of a fresh LLC's pages; every
// workload's untraced runs take seconds, -smoke runs milliseconds.
const minAccountedNs = 1e9

// layerSelfNs is layer l's self time in a traced rep: its span total
// less what its spans' own clock reads add.
func (lr *layerReport) layerSelfNs(l int) float64 {
	return selfTime(float64(lr.RawNs[l]), float64(lr.Calls[l]), lr.SpanInsideNs)
}

// loopNs is the simulator loop's self time in a traced rep: the traced
// wall time less every span total and the part of each span's cost
// that lies outside its measured duration. Layers and loop are timed in
// the same run, so host speed drifting between runs does not leak in.
func (lr *layerReport) loopNs() float64 {
	ns := lr.WallNs
	for l := range numLayers {
		ns -= float64(lr.RawNs[l]) + float64(lr.Calls[l])*(lr.SpanWholeNs-lr.SpanInsideNs)
	}
	return ns
}

// accounted checks a traced rep's attribution: the loop's self time
// must be positive, and the layers' and the loop's self times together
// must come within accountTolerance of the untraced runs' wall time.
// When the calibrated span cost does not describe the spans' real cost,
// or the replay does not do the simulator's work, one of the two fails.
func (lr *layerReport) accounted() error {
	if lr.UntracedNs < minAccountedNs {
		return nil
	}
	loop := lr.loopNs()
	if loop <= 0 {
		return fmt.Errorf("traced rep: spans take %.0f ns more than the traced run's wall time; the calibrated span cost is wrong", -loop)
	}
	attributed := loop
	for l := range numLayers {
		attributed += lr.layerSelfNs(l)
	}
	if miss := (attributed - lr.UntracedNs) / lr.WallNs; !(math.Abs(miss) <= accountTolerance) {
		return fmt.Errorf("traced rep: layer and loop self times add up to %.4g s, the untraced runs took %.4g s: %+.0f%% of the traced %.4g s",
			attributed/1e9, lr.UntracedNs/1e9, 100*miss, lr.WallNs/1e9)
	}
	return nil
}

// layerMetrics turns a traced rep's span totals into per-layer metrics.
func layerMetrics(lr *layerReport) map[string]float64 {
	m := map[string]float64{}
	kinstr := lr.Instr / 1000
	for l, name := range layerNames {
		calls := float64(lr.Calls[l])
		self := lr.layerSelfNs(l)
		m[name+".ns_per_call"] = ratio(self, calls)
		m[name+".calls_per_kinstr"] = calls / kinstr
		m[name+".share"] = self / lr.WallNs
	}
	m["sim.self.ns_per_kinstr"] = lr.loopNs() / kinstr
	m["tracing.overhead_x"] = lr.WallNs / lr.UntracedNs
	m["cache.l1.hit_ratio"] = 1 - ratio(float64(lr.L1Misses), float64(lr.L1Refs))
	m["llc.hit_ratio"] = ratio(float64(lr.LLCHits), float64(lr.LLCReads))
	m["mem.queue_cycles_per_read"] = ratio(float64(lr.MemQueue), float64(lr.MemReads))

	c := lr.Codec
	codecNs := func(ns, calls int64) float64 {
		return ratio(selfTime(float64(ns), float64(calls), lr.SpanInsideNs), float64(calls))
	}
	m["lbe.append.ns_per_call"] = codecNs(c.AppendNs, c.AppendCalls)
	m["lbe.append.allocs_per_call"] = ratio(float64(c.Allocs), float64(c.AllocSamples))
	m["lbe.commit.ns_per_call"] = codecNs(c.CommitNs, c.CommitCalls)
	m["tagdelta.trial.ns_per_call"] = codecNs(c.TrialNs, c.TrialCalls)
	return m
}

// selfTime is a span total less what the spans themselves cost.
func selfTime(rawNs, calls, emptySpanNs float64) float64 {
	return max(0, rawNs-calls*emptySpanNs)
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the first quartile, median and third quartile of
// xs by Python's statistics.quantiles(xs, n=4) ("exclusive" method), so
// spreads read the same as in tools built on it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-quantile (0..1) of xs, interpolating linearly
// between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// finite reports an error for a metric no rep could measure.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s: no measurement", name)
	}
	return nil
}
