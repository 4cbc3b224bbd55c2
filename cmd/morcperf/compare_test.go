package main

import (
	"io"
	"testing"
)

func sum(samples ...float64) summary {
	q1, q2, q3 := quartiles(samples)
	return summary{Value: q2, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

func TestClassify(t *testing.T) {
	rate := metricDef{Name: "sim_minstr_per_s", Better: "higher", Bound: 0.10}
	latency := metricDef{Name: "job_p50_ms", Better: "lower", Bound: 0.10}
	steady := sum(99, 100, 100, 101, 102)
	noisy := sum(70, 90, 100, 110, 130)
	for _, tc := range []struct {
		name           string
		d              metricDef
		parent, change summary
		want           string
	}{
		{"faster", rate, steady, sum(118, 120, 121, 122, 119), verdictBetter},
		{"slower", rate, steady, sum(84, 85, 86, 85, 87), verdictWorse},
		{"same", rate, steady, sum(98, 101, 103, 100, 99), verdictWithin},
		{"small gain that overlaps", rate, steady, sum(100, 104, 105, 106, 107), verdictWithin},
		{"noisy parent, overlapping change", rate, noisy, sum(60, 80, 95, 105, 120), verdictUnresolved},
		{"noisy parent, change far off", rate, noisy, sum(40, 41, 42, 43, 44), verdictWorse},
		{"higher latency", latency, steady, sum(120, 121, 122, 123, 124), verdictWorse},
		{"lower latency", latency, steady, sum(80, 81, 82, 83, 84), verdictBetter},
	} {
		if got := classify(tc.d, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRunsFailsOnRegressionOrMismatch(t *testing.T) {
	run := func(sha string, rate ...float64) runFile {
		s := sum(rate...)
		s.Unit, s.Better, s.Bound = "Minstr/s", "higher", 0.10
		return runFile{Workloads: []workloadReport{{
			Name: "morc-reads", Correct: true, Ops: 5, ResultSHA: sha, EndToEnd: map[string]summary{"sim_minstr_per_s": s},
		}}}
	}
	// failing has reps that failed while the rest still agree on the
	// parent's digest and speed.
	failing := func(failed int, correct bool) runFile {
		rf := run("abc", 99, 100, 101)
		rf.Workloads[0].OpsFailed, rf.Workloads[0].Correct = failed, correct
		return rf
	}
	parent := run("abc", 99, 100, 101)
	for _, tc := range []struct {
		name    string
		change  runFile
		wantBad bool
	}{
		{"identical", run("abc", 99, 100, 101), false},
		{"faster", run("abc", 130, 131, 132), false},
		{"slower", run("abc", 70, 71, 72), true},
		{"different results", run("abd", 99, 100, 101), true},
		{"workload missing", runFile{}, true},
		{"failed reps, same digest", failing(2, false), true},
		{"not correct", failing(0, false), true},
		{"more failed ops", failing(1, true), true},
	} {
		if bad := compareRuns(parent, tc.change, io.Discard); bad != tc.wantBad {
			t.Errorf("%s: bad = %v, want %v", tc.name, bad, tc.wantBad)
		}
	}
}
