package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// A layer's span total includes the cost of its own clock reads; its
// self time must drop that. The loop's self time is the traced wall
// time less its child spans and everything the spans cost.
func TestLayerMetricsSubtractNestedAndEmptySpanCost(t *testing.T) {
	// A span adds 10 ns inside its measured duration and 25 ns in all.
	lr := &layerReport{SpanInsideNs: 10, SpanWholeNs: 25, WallNs: 1e6, UntracedNs: 8e5, Instr: 1e6}
	lr.Calls[layTraceNext], lr.RawNs[layTraceNext] = 1000, 1000*50 // 40 ns of work per call
	lr.Calls[layLLCFill], lr.RawNs[layLLCFill] = 10, 10*1010       // 1000 ns per call
	lr.Calls[layMem], lr.RawNs[layMem] = 100, 100*8                // cheaper than an empty span: 0
	lr.Codec = codecReport{AppendCalls: 4, AppendNs: 4 * 110, CommitCalls: 2, CommitNs: 2 * 30, Allocs: 60, AllocSamples: 3}
	lr.L1Refs, lr.L1Misses, lr.LLCReads, lr.LLCHits, lr.MemReads, lr.MemQueue = 100, 25, 25, 5, 20, 400

	// The loop's time is the wall time less the child spans' totals and
	// the 15 ns each of the 1110 spans costs outside its own duration.
	loop := 1e6 - (50_000 + 10_100 + 800) - 1110*15
	m := layerMetrics(lr)
	want := map[string]float64{
		"trace.next.ns_per_call":      40,
		"trace.next.calls_per_kinstr": 1,
		"trace.next.share":            40_000 / 1e6,
		"llc.fill.ns_per_call":        1000,
		"llc.fill.share":              10_000 / 1e6,
		"mem.ns_per_call":             0,
		"mem.share":                   0,
		"llc.read.ns_per_call":        0, // never called
		"sim.self.ns_per_kinstr":      loop / 1000,
		"tracing.overhead_x":          1.25,
		"cache.l1.hit_ratio":          0.75,
		"llc.hit_ratio":               0.2,
		"mem.queue_cycles_per_read":   20,
		"lbe.append.ns_per_call":      100,
		"lbe.commit.ns_per_call":      20,
		"lbe.append.allocs_per_call":  20,
		"tagdelta.trial.ns_per_call":  0,
	}
	for k, v := range want {
		if got, ok := m[k]; !ok || !near(got, v) {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
}

// A traced rep's attribution must add up: the loop's self time is
// positive, and layer plus loop self times come within a third of the
// traced wall time of the untraced runs' wall time.
func TestAccountedChecksAttribution(t *testing.T) {
	// 2e7 spans of 10 ns inside and 30 ns in all, 2 s of layer self time
	// and 1 s of loop time: the traced run takes 2 + 1 + 0.6 s and
	// accounts for 3 s of untraced time. scale shrinks the whole run.
	report := func(untracedNs, wholeNs, scale float64) *layerReport {
		lr := &layerReport{SpanInsideNs: 10, SpanWholeNs: wholeNs, WallNs: 3.6e9 * scale, UntracedNs: untracedNs * scale, Instr: 1e6 * scale}
		calls := 2e7 * scale
		lr.Calls[layLLCFill], lr.RawNs[layLLCFill] = int64(calls), int64(calls*(100+10))
		return lr
	}
	for _, tc := range []struct {
		name    string
		lr      *layerReport
		wantErr bool
	}{
		{"exact", report(3e9, 30, 1), false},
		{"untraced 1 s faster", report(2e9, 30, 1), false},
		{"untraced 1 s slower", report(4e9, 30, 1), false},
		{"untraced 1.4 s faster", report(1.6e9, 30, 1), true},
		{"untraced 1.4 s slower", report(4.4e9, 30, 1), true},
		// A span cost calibrated 60 ns too high leaves the loop with
		// less than nothing.
		{"negative loop time", report(3e9, 90, 1), true},
		// Below a second of untraced time one-off costs dominate.
		{"too short to check", report(1.6e9, 90, 0.1), false},
	} {
		if err := tc.lr.accounted(); (err != nil) != tc.wantErr {
			t.Errorf("%s: accounted() = %v, want an error %v", tc.name, err, tc.wantErr)
		}
	}
	if got := layerMetrics(report(3e9, 30, 1))["sim.self.ns_per_kinstr"]; !near(got, 1e6) {
		t.Errorf("sim.self.ns_per_kinstr = %v, want 1e6", got)
	}
}

func TestPerLayerCombinesReps(t *testing.T) {
	sims := []repResult{
		{Instr: 1e6, WallSec: 1, Runtime: &runtimeStats{GCCPUFrac: 0.1, Allocs: 1000, AllocBytes: 8000}},
		{Instr: 1e6, WallSec: 3, Runtime: &runtimeStats{GCCPUFrac: 0.3, Allocs: 3000, AllocBytes: 24000}},
		{Instr: 1e6, WallSec: 2, Runtime: &runtimeStats{GCCPUFrac: 0.2, Allocs: 2000, AllocBytes: 16000}},
	}
	traced := &repResult{Layers: &layerReport{WallNs: 3e9, UntracedNs: 2e9, Instr: 1e6}}
	jobs := []repResult{
		{Spans: map[string][]float64{"server.run": {1, 2, 3}}},
		{Spans: map[string][]float64{"server.run": {4, 5}}},
	}
	m := perLayer(sims, traced, jobs)
	for name, want := range map[string]float64{
		"tracing.overhead_x":             1.5, // 3 s traced over the same process's 2 s untraced
		"runtime.gc_cpu_frac":            0.2,
		"runtime.allocs_per_kinstr":      2,
		"runtime.alloc_bytes_per_kinstr": 16,
		"server.run.p50_ms":              3, // over all five jobs
	} {
		if got := m[name]; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, ok := m["client.submit.p50_ms"]; ok {
		t.Error("a span no job recorded got a value")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5.5, 1.25, 9, 2, 7}, 1.625, 5.5, 8},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := percentile(xs, p); !near(got, want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, p, got, want)
		}
	}
}

func TestEndToEndAggregatesReps(t *testing.T) {
	// The host ran at the reference host's speed throughout.
	const ref = probeRefSec
	reps := []repResult{
		{Kind: kindJobs, ProbeSec: ref, Instr: 2e6, WallSec: 2, CPUSec: 3, RSSMB: 40, SetupSec: 0.01, JobMs: []float64{10, 20}},
		{Kind: kindJobs, ProbeSec: ref, Instr: 2e6, WallSec: 1, CPUSec: 2, RSSMB: 60, SetupSec: 0.03, JobMs: []float64{30, 40}},
		{Kind: kindJobs, ProbeSec: ref, Instr: 2e6, WallSec: 4, CPUSec: 4, RSSMB: 50, SetupSec: 0.02, JobMs: []float64{50, 60}},
	}
	setups := []repResult{{ProbeSec: ref, SetupSec: 0.04}, {ProbeSec: ref, SetupSec: 0.05}}
	m := endToEnd(reps, setups)
	for name, want := range map[string]float64{
		"sim_minstr_per_s":      1,    // median of 1, 2, 0.5
		"host_cpu_s_per_minstr": 1.5,  // median of 1.5, 1, 2
		"peak_rss_mb":           40,   // the smallest rep's peak
		"setup_s":               0.03, // median over all five set-ups
		"job_p50_ms":            35,   // median of the reps' 15, 35, 55
		"job_p90_ms":            39,   // median of the reps' 19, 39, 59
		"jobs_per_s":            1,    // median of 1, 2, 0.5
	} {
		if got := m[name].Value; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if s := m["setup_s"]; s.N != 5 {
		t.Errorf("setup_s rests on %d samples, want 5", s.N)
	}
}

// On a host running the probe at half the reference speed, host CPU
// work counts half its host seconds; a jobs rep's wall time, mostly the
// service's poll intervals, counts in full.
func TestEndToEndScalesHostWork(t *testing.T) {
	slow := 2 * probeRefSec
	for _, tc := range []struct {
		rep  repResult
		want map[string]float64
	}{
		{
			repResult{Kind: kindSim, ProbeSec: slow, Instr: 2e6, WallSec: 2, CPUSec: 3, SetupSec: 0.02, JobMs: []float64{2000}},
			map[string]float64{"sim_minstr_per_s": 2, "host_cpu_s_per_minstr": 0.75, "setup_s": 0.01, "job_p50_ms": 1000, "jobs_per_s": 1},
		},
		{
			repResult{Kind: kindJobs, ProbeSec: slow, Instr: 2e6, WallSec: 2, CPUSec: 3, SetupSec: 0.02, JobMs: []float64{100, 200}},
			map[string]float64{"sim_minstr_per_s": 1, "host_cpu_s_per_minstr": 0.75, "setup_s": 0.01, "job_p50_ms": 150, "jobs_per_s": 1},
		},
	} {
		m := endToEnd([]repResult{tc.rep}, nil)
		for name, want := range tc.want {
			if got := m[name].Value; !near(got, want) {
				t.Errorf("%s rep: %s = %v, want %v", tc.rep.Kind, name, got, want)
			}
		}
	}
}
