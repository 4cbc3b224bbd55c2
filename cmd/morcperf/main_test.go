package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The orchestrator starts reps as child processes of its own
// executable, which under `go test` is the test binary: with this
// variable set, the binary runs morcperf instead of the tests.
const childEnv = "MORCPERF_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestSmokeRunReportsEveryMetric(t *testing.T) {
	t.Setenv(childEnv, "1")
	out := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seconds", "0.01", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	rf, err := readRun(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the run, want %d", len(rf.Workloads), len(workloads))
	}
	for _, w := range rf.Workloads {
		if !w.Correct || w.OpsFailed != 0 || w.Ops == 0 || w.ResultSHA == "" {
			t.Errorf("%s: correct %v, %d/%d ops failed, result_sha %q: %v", w.Name, w.Correct, w.OpsFailed, w.Ops, w.ResultSHA, w.Errors)
		}
		for _, d := range endToEndDefs {
			if s, ok := w.EndToEnd[d.Name]; !ok || !(s.Value > 0) || math.IsInf(s.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive number", w.Name, d.Name, s, ok)
			}
		}
		for _, d := range perLayerDefs {
			if v, ok := w.PerLayer[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v (present %v)", w.Name, d.Name, v, ok)
			}
		}
	}
}

// A single-workload run ends with the one-line result: every end-to-end
// metric untraced, every per-layer metric traced.
func TestSingleWorkloadResultLine(t *testing.T) {
	t.Setenv(childEnv, "1")
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEndDefs}, {"1", perLayerDefs}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "-workload", "jobs-cluster", "-seed", "7", "-seconds", "0.01", "-trace", tc.trace}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s: exit %d\n%s%s", tc.trace, code, &stdout, &stderr)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct   *bool `json:"correct"`
			Attempted int   `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("-trace %s: last line %q: %v", tc.trace, lines[len(lines)-1], err)
		}
		if res.Correct == nil || !*res.Correct || res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
			t.Errorf("-trace %s: correct %v, attempted %d, failed %v", tc.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(tc.defs) {
			t.Errorf("-trace %s: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("-trace %s: metric %s = %+v (present %v), want unit %s", tc.trace, d.Name, m, ok, d.Unit)
			}
		}
	}
}

// BENCHMARK.json at the repository root names the workloads and metrics
// the benchmark reports; it must agree with the code.
func TestBenchmarkFileMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i := range min(len(bf.Workloads), len(workloads)) {
		if got, want := bf.Workloads[i], workloads[i]; got.Name != want.Name || got.Why != want.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %s: %s", i, got, want.Name, want.Why)
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i := range min(len(bf.EndToEnd), len(endToEndDefs)) {
		got, want := bf.EndToEnd[i], endToEndDefs[i]
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better || got.Bound != want.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, got, want)
		}
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayerDefs))
	}
	for i := range min(len(bf.PerLayer), len(perLayerDefs)) {
		got, want := bf.PerLayer[i], perLayerDefs[i]
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, got, want)
		}
	}
}
