package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Verdicts for one (metric, workload) pair of a comparison.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareFiles prints one row per (end-to-end metric, workload) of two
// runs and exits non-zero when a metric got worse by more than its
// bound, the runs simulated different results, or the change's run
// failed operations.
func compareFiles(parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readRun(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, "morcperf:", err)
		return 2
	}
	change, err := readRun(changePath)
	if err != nil {
		fmt.Fprintln(stderr, "morcperf:", err)
		return 2
	}
	if compareRuns(parent, change, stdout) {
		return 1
	}
	return 0
}

func readRun(path string) (runFile, error) {
	var rf runFile
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &rf)
	}
	if err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareRuns writes the comparison table and reports whether it found
// a regression, a result mismatch, or a change run that is not correct
// or failed more operations than the parent's.
func compareRuns(parent, change runFile, w io.Writer) (bad bool) {
	fmt.Fprintf(w, "%-16s %-22s %11s %21s %11s %21s %8s %6s  %s\n",
		"workload", "metric", "parent", "parent q1..q3", "change", "change q1..q3", "delta", "bound", "verdict")
	for _, p := range parent.Workloads {
		i := slices.IndexFunc(change.Workloads, func(c workloadReport) bool { return c.Name == p.Name })
		if i < 0 {
			fmt.Fprintf(w, "%-16s missing from the change's run\n", p.Name)
			bad = true
			continue
		}
		c := change.Workloads[i]
		if p.ResultSHA != c.ResultSHA {
			fmt.Fprintf(w, "%-16s result_sha mismatch: %s vs %s\n", p.Name, p.ResultSHA, c.ResultSHA)
			bad = true
		}
		if !c.Correct || c.OpsFailed > p.OpsFailed {
			fmt.Fprintf(w, "%-16s change: correct %v, %d of %d ops failed; parent: %d of %d\n",
				p.Name, c.Correct, c.OpsFailed, c.Ops, p.OpsFailed, p.Ops)
			bad = true
		}
		for _, d := range endToEndDefs {
			ps, pok := p.EndToEnd[d.Name]
			cs, cok := c.EndToEnd[d.Name]
			if !pok || !cok {
				continue
			}
			v := classify(d, ps, cs)
			bad = bad || v == verdictWorse
			fmt.Fprintf(w, "%-16s %-22s %11.5g %10.5g..%-10.5g %11.5g %10.5g..%-10.5g %+7.1f%% %5.0f%%  %s\n",
				p.Name, d.Name, ps.Value, ps.Q1, ps.Q3, cs.Value, cs.Q1, cs.Q3,
				100*(cs.Value-ps.Value)/ps.Value, 100*d.Bound, v)
		}
	}
	return bad
}

// classify judges the change's value of one metric against the
// parent's. It is unresolved when the parent's own spread (IQR over its
// value) is wider than the bound and the two runs' samples interleave;
// worse when the change is worse by more than the bound; better when it
// is better by more than the parent's spread and every change sample
// beats every parent sample; within otherwise.
func classify(d metricDef, p, c summary) string {
	if p.Value == 0 {
		return verdictUnresolved
	}
	worse := (c.Value - p.Value) / p.Value
	if d.Better == "higher" {
		worse = -worse
	}
	spread := (p.Q3 - p.Q1) / p.Value
	switch {
	case spread > d.Bound && interleaved(p.Samples, c.Samples):
		return verdictUnresolved
	case worse > d.Bound:
		return verdictWorse
	case -worse > spread && beatsAll(d, c.Samples, p.Samples):
		return verdictBetter
	}
	return verdictWithin
}

// interleaved reports whether the two sample sets' ranges overlap.
func interleaved(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return true
	}
	return max(slices.Min(a), slices.Min(b)) <= min(slices.Max(a), slices.Max(b))
}

// beatsAll reports whether every sample of c is better than every
// sample of p.
func beatsAll(d metricDef, c, p []float64) bool {
	if len(c) == 0 || len(p) == 0 {
		return false
	}
	if d.Better == "higher" {
		return slices.Min(c) > slices.Max(p)
	}
	return slices.Max(c) < slices.Min(p)
}
