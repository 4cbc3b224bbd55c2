// Command morcperf is the repository's benchmark: it measures the MORC
// simulator and the morcd job service end to end, attributes host time
// to the simulator's layers and the job path's hops, and checks that
// every run computed the right results.
//
// Every rep runs in a fresh child process (this binary, with -rep), so
// set-up, heap and GC state never leak from one rep into the next; reps
// of several workloads are interleaved round-robin. See README.md for
// the workloads, the metrics and how to compare two runs.
//
//	morcperf -seed 1 -out run.json           # every workload, end to end and traced
//	morcperf -workload morc-reads -seed 3 -seconds 25 -trace 0
//	morcperf -compare parent.json change.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// repTimeout bounds one rep; a normal rep takes seconds.
const repTimeout = 120 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("morcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "all", "workload to run, or all")
		seed      = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", 0, "start end-to-end reps for this many seconds (0: 5 reps per workload)")
		traceMode = fs.Int("trace", -1, "0: end-to-end reps only; 1: traced per-layer reps only; omitted: both")
		out       = fs.String("out", "", "write the run, with every sample, as JSON to this file")
		compare   = fs.Bool("compare", false, "compare two run files: -compare parent.json change.json")
		smoke     = fs.Bool("smoke", false, "run tiny budgets (tests)")
		repKind   = fs.String("rep", "", "run one rep of this kind here and print it as JSON (the orchestrator's child mode)")
		t0        = fs.Int64("t0", 0, "with -rep: the orchestrator's clock in Unix ns just before it started this process")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "morcperf: -compare needs two run files: parent.json change.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	b := budget{smoke: *smoke}
	if *repKind != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "morcperf:", err)
			return 2
		}
		ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
		defer cancel()
		rr := runRep(ctx, *repKind, w, *seed, b, time.Unix(0, *t0))
		if err := json.NewEncoder(stdout).Encode(rr); err != nil {
			fmt.Fprintln(stderr, "morcperf:", err)
			return 1
		}
		return 0
	}

	var ws []*workload
	if *name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "morcperf:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if *traceMode < -1 || *traceMode > 1 {
		fmt.Fprintln(stderr, "morcperf: -trace must be 0 or 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "morcperf:", err)
		return 1
	}
	o := &orchestrator{exe: exe, seed: *seed, b: b, stderr: stderr}
	e2e, traced := *traceMode != 1, *traceMode != 0
	repsBy := make([][]repResult, len(ws))
	if e2e {
		o.endToEndReps(ws, repsBy, *seconds)
	}
	if traced {
		for i, w := range ws {
			for _, kind := range []string{kindSim, kindTraced, kindJobs} {
				if !(e2e && kind == w.Kind) { // its end-to-end reps serve
					repsBy[i] = append(repsBy[i], o.rep(kind, w))
				}
			}
		}
	}

	rf := runFile{Schema: "morcperf/1", NumCPU: runtime.NumCPU(), Go: runtime.Version(), Seed: *seed, Smoke: *smoke}
	allCorrect := true
	for i, w := range ws {
		wr := buildReport(w, repsBy[i], e2e, traced)
		printReport(stdout, wr)
		rf.Workloads = append(rf.Workloads, wr)
		allCorrect = allCorrect && wr.Correct
	}
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			fmt.Fprintln(stderr, "morcperf:", err)
			return 1
		}
	}
	if len(ws) == 1 {
		line, err := resultLine(rf.Workloads[0], e2e, traced)
		if err != nil {
			fmt.Fprintln(stderr, "morcperf:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if !allCorrect {
		return 1
	}
	return 0
}

// orchestrator starts reps as child processes of this binary.
type orchestrator struct {
	exe      string
	seed     int64
	b        budget
	stderr   io.Writer
	probeSec float64 // the latest host-speed probe, taken between reps
}

// defaultRounds is how many end-to-end reps each workload gets when no
// time is given.
const defaultRounds = 5

// endToEndReps runs end-to-end reps round-robin across the workloads:
// rounds until seconds have passed (at least one), or defaultRounds
// rounds when seconds is 0. Each end-to-end rep is followed by a
// set-up-only rep, which doubles the set-up samples for little time. A
// round in which any rep failed is the last: the run is wrong already,
// and a rep that fails at once would otherwise be retried thousands of
// times before the deadline.
func (o *orchestrator) endToEndReps(ws []*workload, reps [][]repResult, seconds float64) {
	start := time.Now()
	for round := 0; ; round++ {
		done := round >= defaultRounds
		if seconds > 0 {
			done = round > 0 && time.Since(start).Seconds() >= seconds
		}
		if done {
			return
		}
		failed := false
		for i, w := range ws {
			e2e, setup := o.rep(w.Kind, w), o.rep(kindSetup, w)
			reps[i] = append(reps[i], e2e, setup)
			failed = failed || e2e.Failed > 0 || setup.Failed > 0
		}
		if failed {
			return
		}
	}
}

// rep runs one rep in a fresh child process and decodes its report. A
// child that fails to run or report counts as one failed op. The host
// is probed before and after, while no child runs; the rep's probe time
// is the mean of the two.
func (o *orchestrator) rep(kind string, w *workload) repResult {
	if o.probeSec == 0 {
		o.probeSec = probe()
	}
	before := o.probeSec
	rr := o.child(kind, w)
	o.probeSec = probe()
	rr.ProbeSec = (before + o.probeSec) / 2
	return rr
}

func (o *orchestrator) child(kind string, w *workload) repResult {
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	args := []string{"-rep", kind, "-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10)}
	if o.b.smoke {
		args = append(args, "-smoke")
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, o.exe, append(args, "-t0", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Stdout, cmd.Stderr = &stdout, o.stderr
	err := cmd.Run()
	var rr repResult
	if err == nil {
		err = json.Unmarshal(stdout.Bytes(), &rr)
	}
	if err != nil {
		rr = repResult{Kind: kind, Ops: 1}
		rr.fail("%s rep: %v", kind, err)
	}
	return rr
}

// runFile is a whole run, as -out writes it and -compare reads it.
type runFile struct {
	Schema    string           `json:"schema"`
	NumCPU    int              `json:"num_cpu"`
	Go        string           `json:"go"`
	Seed      int64            `json:"seed"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []workloadReport `json:"workloads"`
}

// workloadReport is one workload's outcome in a run.
type workloadReport struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Ops       int      `json:"ops"`
	OpsFailed int      `json:"ops_failed"`
	Errors    []string `json:"errors,omitempty"`
	// ResultSHA is the digest every end-to-end rep's simulated results
	// agreed on; a change that only speeds the simulator up must leave
	// it unchanged.
	ResultSHA string `json:"result_sha"`
	// HostSpeed is the median over the workload's reps of how fast the
	// host ran the probe against the reference host (host.go).
	HostSpeed float64            `json:"host_speed"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// buildReport checks a workload's reps against each other and
// aggregates the ones that passed. Reps of one seed must agree on their
// digest; a traced rep checks its own counters against the simulator.
func buildReport(w *workload, reps []repResult, e2e, traced bool) workloadReport {
	wr := workloadReport{Name: w.Name}
	good := map[string][]repResult{}
	majority := map[string]string{}
	for _, kind := range []string{kindSim, kindJobs} {
		count := map[string]int{}
		for _, r := range reps {
			if r.Kind == kind && r.Failed == 0 {
				count[r.Digest]++
				if count[r.Digest] > count[majority[kind]] {
					majority[kind] = r.Digest
				}
			}
		}
	}
	var speeds []float64
	for _, r := range reps {
		speeds = append(speeds, r.hostScale())
		if r.Failed == 0 && r.Digest != majority[r.Kind] { // set-up and traced reps have none
			r.fail("digest %.12s differs from the other reps' %.12s", r.Digest, majority[r.Kind])
		}
		wr.Ops += r.Ops
		wr.OpsFailed += r.Failed
		wr.Errors = append(wr.Errors, r.Errors...)
		if r.Failed == 0 {
			good[r.Kind] = append(good[r.Kind], r)
		}
	}
	wr.ResultSHA = majority[w.Kind]
	wr.HostSpeed = median(speeds)
	if e2e && len(good[w.Kind]) > 0 {
		wr.EndToEnd = endToEnd(good[w.Kind], good[kindSetup])
	}
	if traced {
		var t *repResult
		if len(good[kindTraced]) > 0 {
			t = &good[kindTraced][0]
		}
		wr.PerLayer = perLayer(good[kindSim], t, good[kindJobs])
	}
	wr.Correct = wr.OpsFailed == 0
	return wr
}

func printReport(w io.Writer, r workloadReport) {
	fmt.Fprintf(w, "== %s: correct %v, %d ops, %d failed, result_sha %s, host speed %.3f of the reference\n",
		r.Name, r.Correct, r.Ops, r.OpsFailed, r.ResultSHA, r.HostSpeed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	if len(r.EndToEnd) > 0 {
		fmt.Fprintf(w, "   %-26s %12s %12s %12s %5s  %s\n", "end-to-end", "value", "q1", "q3", "n", "unit")
		for _, d := range endToEndDefs {
			s := r.EndToEnd[d.Name]
			fmt.Fprintf(w, "   %-26s %12.5g %12.5g %12.5g %5d  %s\n", d.Name, s.Value, s.Q1, s.Q3, s.N, d.Unit)
		}
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintf(w, "   %-34s %12s  %s\n", "per-layer", "value", "unit")
		for _, d := range perLayerDefs {
			if v, ok := r.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "   %-34s %12.5g  %s\n", d.Name, v, d.Unit)
			}
		}
	}
}

// resultLine is the one-line JSON result for a single-workload run:
// every end-to-end metric for an untraced run, every per-layer metric
// for a traced one.
func resultLine(r workloadReport, e2e, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if e2e {
		for _, d := range endToEndDefs {
			s, ok := r.EndToEnd[d.Name]
			if !ok {
				return "", fmt.Errorf("%s: %s: no passing end-to-end rep", r.Name, d.Name)
			}
			if err := finite(d.Name, s.Value); err != nil {
				return "", err
			}
			metrics[d.Name] = value{s.Value, d.Unit}
		}
	}
	if traced {
		for _, d := range perLayerDefs {
			v, ok := r.PerLayer[d.Name]
			if !ok {
				return "", fmt.Errorf("%s: %s: no passing traced rep", r.Name, d.Name)
			}
			if err := finite(d.Name, v); err != nil {
				return "", err
			}
			metrics[d.Name] = value{v, d.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Ops, r.OpsFailed, metrics})
	return string(b), err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
