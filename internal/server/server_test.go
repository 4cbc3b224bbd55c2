package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"morc/internal/core"
	"morc/internal/exp"
	"morc/internal/sim"
)

// newTestServer builds a server + httptest front-end and tears both down.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec any) (*http.Response, JobView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	json.NewDecoder(resp.Body).Decode(&v)
	return resp, v
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: HTTP %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// pollUntil polls the job until cond holds or the deadline passes.
func pollUntil(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, cond func(JobView) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, ts, id)
		if cond(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: condition not met before deadline; last view: status=%s progress=%.3f err=%q",
				id, v.Status, v.Progress, v.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}
	var v JobView
	json.NewDecoder(resp.Body).Decode(&v)
	return v
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// longSpec is a job that runs long enough to be cancelled mid-flight:
// a tiny warmup so it enters measurement immediately, then an
// effectively unbounded measurement window.
func longSpec() JobSpec {
	return JobSpec{
		Workload: "gcc",
		Scheme:   sim.MORC,
		Config:   json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 4000000000}`),
	}
}

// TestSubmitPollResultMatchesDirect is the headline round-trip: a
// quick-budget gcc/MORC job over HTTP must return byte-identical Result
// JSON to a direct sim.RunSingle call with the same configuration.
func TestSubmitPollResultMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	resp, v := postJob(t, ts, JobSpec{Workload: "gcc", Scheme: sim.MORC, Budget: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if v.Status != StatusQueued && v.Status != StatusRunning {
		t.Fatalf("fresh job status = %s", v.Status)
	}

	final := pollUntil(t, ts, v.ID, 2*time.Minute, func(v JobView) bool { return v.Status.Terminal() })
	if final.Status != StatusDone {
		t.Fatalf("job finished %s (error %q), want done", final.Status, final.Error)
	}
	if final.Result == nil {
		t.Fatal("done job has no result")
	}
	if final.Progress != 1 {
		t.Errorf("done job progress = %v, want 1", final.Progress)
	}

	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.MORC
	b := exp.Quick()
	cfg.WarmupInstr = b.Warmup
	cfg.MeasureInstr = b.Measure
	cfg.SampleEvery = b.SampleEvery
	want := sim.RunSingle("gcc", cfg)

	got, _ := json.Marshal(final.Result)
	ref, _ := json.Marshal(want)
	if string(got) != string(ref) {
		t.Errorf("server result differs from direct sim.RunSingle:\n got %s\nwant %s", got, ref)
	}

	m := metricsText(t, ts)
	if !strings.Contains(m, `morcd_jobs_total{status="done"} 1`) {
		t.Errorf("metrics missing done count:\n%s", m)
	}
	if !strings.Contains(m, `morcd_job_duration_seconds_count{scheme="MORC"} 1`) {
		t.Errorf("metrics missing MORC wall-time histogram:\n%s", m)
	}
}

// TestCancelMidRun cancels a running job and checks the terminal state
// and the metrics counters.
func TestCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	_, v := postJob(t, ts, longSpec())
	pollUntil(t, ts, v.ID, 30*time.Second, func(v JobView) bool { return v.Status == StatusRunning })

	cancelJob(t, ts, v.ID)
	final := pollUntil(t, ts, v.ID, 30*time.Second, func(v JobView) bool { return v.Status.Terminal() })
	if final.Status != StatusCancelled {
		t.Fatalf("job finished %s, want cancelled", final.Status)
	}
	if final.Result != nil {
		t.Error("cancelled job has a result")
	}

	m := metricsText(t, ts)
	if !strings.Contains(m, `morcd_jobs_total{status="cancelled"} 1`) {
		t.Errorf("metrics missing cancelled count:\n%s", m)
	}
	if !strings.Contains(m, "morcd_queue_depth 0") {
		t.Errorf("metrics missing queue depth:\n%s", m)
	}

	// Cancelling a terminal job is a no-op that still returns the view.
	again := cancelJob(t, ts, v.ID)
	if again.Status != StatusCancelled {
		t.Errorf("re-cancel status = %s", again.Status)
	}
}

// TestCancelQueuedJob cancels a job before any worker picks it up.
func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	_, running := postJob(t, ts, longSpec())
	pollUntil(t, ts, running.ID, 30*time.Second, func(v JobView) bool { return v.Status == StatusRunning })
	_, queued := postJob(t, ts, longSpec())

	v := cancelJob(t, ts, queued.ID)
	if v.Status != StatusCancelled {
		t.Fatalf("queued job after cancel = %s, want cancelled", v.Status)
	}
	if got := s.metrics.snapshot(); got.Cancelled != 1 {
		t.Errorf("cancelled counter = %d, want 1", got.Cancelled)
	}
	cancelJob(t, ts, running.ID)
	pollUntil(t, ts, running.ID, 30*time.Second, func(v JobView) bool { return v.Status.Terminal() })
	if got := s.metrics.snapshot(); got.Cancelled != 2 {
		t.Errorf("cancelled counter = %d, want 2", got.Cancelled)
	}
}

// TestQueueFullBackpressure fills the bounded queue and expects 429 with
// the rejection counted.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	_, running := postJob(t, ts, longSpec())
	pollUntil(t, ts, running.ID, 30*time.Second, func(v JobView) bool { return v.Status == StatusRunning })
	// Worker busy; this occupies the single queue slot.
	resp, queued := postJob(t, ts, longSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", resp.StatusCode)
	}

	resp, _ = postJob(t, ts, longSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if got := s.metrics.snapshot(); got.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", got.Rejected)
	}
	m := metricsText(t, ts)
	if !strings.Contains(m, "morcd_jobs_rejected_total 1") {
		t.Errorf("metrics missing rejection:\n%s", m)
	}

	cancelJob(t, ts, queued.ID)
	cancelJob(t, ts, running.ID)
}

// TestGracefulShutdownDrain: Shutdown without deadline pressure finishes
// queued and in-flight jobs.
func TestGracefulShutdownDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	quick := JobSpec{Workload: "omnetpp", Scheme: sim.Uncompressed,
		Config: json.RawMessage(`{"WarmupInstr": 50000, "MeasureInstr": 100000}`)}
	j1, err := s.Submit(quick)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(quick)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, j := range []*Job{j1, j2} {
		if st := j.Status(); st != StatusDone {
			t.Errorf("job %s after drain = %s, want done", j.ID, st)
		}
	}
	if _, err := s.Submit(quick); err != ErrShuttingDown {
		t.Errorf("submit after shutdown = %v, want ErrShuttingDown", err)
	}
}

// TestShutdownDeadlineCancelsInFlight: a deadline that cannot drain the
// running job cancels it instead of hanging.
func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	j, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	for j.Status() != StatusRunning {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if st := j.Status(); st != StatusCancelled {
		t.Errorf("in-flight job after forced shutdown = %s, want cancelled", st)
	}
}

// TestSpecValidation exercises the 400 paths.
func TestSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	cases := []struct {
		name string
		body string
	}{
		{"empty spec", `{}`},
		{"two targets", `{"workload":"gcc","mix":"M0"}`},
		{"unknown workload", `{"workload":"nope"}`},
		{"unknown mix", `{"mix":"M99"}`},
		{"unknown experiment", `{"experiment":"fig99"}`},
		{"bad scheme", `{"workload":"gcc","scheme":"ZIP"}`},
		{"bad budget", `{"workload":"gcc","budget":"huge"}`},
		{"unknown config field", `{"workload":"gcc","config":{"Warmup":1}}`},
		{"unknown spec field", `{"workload":"gcc","frobnicate":true}`},
		{"removed parallelism field", `{"workload":"gcc","parallelism":2}`},
		{"removed Parallelism override", `{"workload":"gcc","config":{"Parallelism":2}}`},
		{"removed LLCBanks override", `{"workload":"gcc","config":{"LLCBanks":3}}`},
		{"removed MemBanks override", `{"workload":"gcc","config":{"MemBanks":8,"MemBankBusy":94}}`},
		{"partial MORCConfig override", `{"workload":"gcc","scheme":"MORC","config":{"MORCConfig":{"ActiveLogs":0}}}`},
		{"MORCConfig with 65 active logs", `{"workload":"gcc","scheme":"MORC","config":{"MORCConfig":` + morcConfigJSON(t, 65) + `}}`},
		{"not json", `{{{`},
		{"removed sampling field", `{"workload":"gcc","sampling":{"IntervalInstr":15000}}`},
		// Field names decode case-insensitively: this names sim.Config's
		// field-less sampling shim.
		{"removed sampling override", `{"workload":"gcc","config":{"sampling":{"IntervalInstr":15000}}}`},
		{"removed MaxEpochs override", `{"workload":"gcc","config":{"Telemetry":{"Every":1,"MaxEpochs":1000000000}}}`},
		{"removed LogReplacement override", `{"workload":"gcc","scheme":"MORC","config":{"MORCConfig":` +
			strings.Replace(morcConfigJSON(t, 8), "{", `{"LogReplacement":1,`, 1) + `}}`},
		// Field names decode case-insensitively: this names core.Config's
		// removed read-verification knob.
		{"removed read-verification override", `{"workload":"gcc","scheme":"MORC","config":{"MORCConfig":` +
			strings.Replace(morcConfigJSON(t, 8), "{", `{"verifyreads":true,`, 1) + `}}`},
		// Every tag is 42 bits wide, so tagdelta.Config has no width to
		// set; a narrower one used to pass validation and panic the run.
		{"removed tag-width override", `{"workload":"gcc","scheme":"MORC","config":{"MORCConfig":` +
			strings.Replace(morcConfigJSON(t, 8), `"Tag":{`, `"Tag":{"tagbits":20,`, 1) + `}}`},
		{"zero bandwidth", `{"workload":"gcc","config":{"BWPerCore":0}}`},
		{"negative bandwidth", `{"workload":"gcc","config":{"BWPerCore":-1}}`},
		{"zero clock", `{"workload":"gcc","config":{"ClockHz":0}}`},
		{"zero ratio-sampling interval", `{"workload":"gcc","config":{"SampleEvery":0}}`},
		{"no CGMT threads", `{"mix":"M0","config":{"Threads":0}}`},
		{"negative LLC latency", `{"workload":"gcc","config":{"LLCLatency":-5}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// Sizes and run lengths above their ceilings get a 400 that names
	// the field and the ceiling. A job's system sets its core count, but
	// a Cores override above the ceiling is refused too; a mix is sized
	// with its 16 cores. JSON's exponent form cannot decode into an
	// integer field, and that error names the field as well.
	morcWith := func(mod func(*core.Config)) string {
		mc := core.DefaultConfig(128 << 10)
		mod(&mc)
		b, err := json.Marshal(mc)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	ceilings := []struct{ body, want string }{
		{`{"workload":"gcc","config":{"L1Bytes":1099511627776}}`,
			fmt.Sprintf("L1Bytes 1099511627776 exceeds the ceiling %d", sim.MaxL1Bytes)},
		{`{"workload":"gcc","config":{"LLCBytesPerCore":33554432}}`,
			fmt.Sprintf("LLCBytesPerCore 33554432 × Cores 1 exceeds the ceiling %d", sim.MaxLLCBytes)},
		{`{"mix":"M0","config":{"LLCBytesPerCore":2097152}}`,
			fmt.Sprintf("LLCBytesPerCore 2097152 × Cores 16 exceeds the ceiling %d", sim.MaxLLCBytes)},
		{`{"workload":"gcc","config":{"Cores":65}}`,
			fmt.Sprintf("Cores 65 exceeds the ceiling %d", sim.MaxCores)},
		{`{"workload":"gcc","config":{"WarmupInstr":10000000001}}`,
			fmt.Sprintf("WarmupInstr 10000000001 exceeds the ceiling %d", uint64(sim.MaxPhaseInstr))},
		{`{"workload":"gcc","config":{"MeasureInstr":1000000000000000}}`,
			fmt.Sprintf("MeasureInstr 1000000000000000 exceeds the ceiling %d", uint64(sim.MaxPhaseInstr))},
		{`{"workload":"gcc","config":{"MeasureInstr":1e15}}`, "MeasureInstr"},
		{`{"workload":"gcc","scheme":"MORC","config":{"MORCConfig":` + morcWith(func(mc *core.Config) { mc.LMTFactor = 65 }) + `}}`,
			fmt.Sprintf("LMTFactor 65 must be in [1, %d]", core.MaxLMTFactor)},
		{`{"workload":"gcc","scheme":"MORC","config":{"MORCConfig":` + morcWith(func(mc *core.Config) { mc.LMTAssoc = 9 }) + `}}`,
			fmt.Sprintf("LMTAssoc 9 must be in [1, %d]", core.MaxLMTAssoc)},
	}
	for _, tc := range ceilings {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: HTTP %d %s, want a 400 naming %q", tc.body, resp.StatusCode, msg, tc.want)
		}
	}
	// Cache geometries every scheme's constructors panic on get a 400
	// that names the geometry. A mix job is checked with its 16 cores.
	for _, sch := range sim.AllSchemes() {
		bodies := []string{fmt.Sprintf(`{"mix":"M0","scheme":%q,"config":{"LLCBytesPerCore":0}}`, sch)}
		for _, o := range badGeometries {
			bodies = append(bodies, fmt.Sprintf(`{"workload":"gcc","scheme":%q,"config":{%s}}`, sch, o))
		}
		for _, body := range bodies {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "bad cache geometry") {
				t.Errorf("%s: HTTP %d %s, want a 400 for the cache geometry", body, resp.StatusCode, msg)
			}
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/j999999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
		}
	}
	// The 65-active-log row fails on the bound alone: 64 passes.
	sp := JobSpec{Workload: "gcc", Scheme: sim.MORC, Config: json.RawMessage(`{"MORCConfig":` + morcConfigJSON(t, 64) + `}`)}
	if err := sp.Validate(); err != nil {
		t.Errorf("MORCConfig with 64 active logs: %v", err)
	}
}

// badGeometries are config overrides whose caches no scheme can build:
// no ways, 32 KB in 3-way sets, a size that is no whole number of
// lines, and LLCs that are empty or no whole number of 8-way sets (nor
// of MORC logs).
var badGeometries = []string{
	`"L1Ways":0`, `"L1Ways":3`, `"L1Bytes":1000`, `"LLCBytesPerCore":0`, `"LLCBytesPerCore":100000`,
}

// TestValidGeometriesRun checks that geometries which are valid but
// not powers of two pass validation and run on every scheme: a 96 KB
// LLC slice (192 8-way sets) and a 24 KB 3-way L1 (128 sets).
func TestValidGeometriesRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	for _, sch := range sim.AllSchemes() {
		for _, o := range []string{`"LLCBytesPerCore":98304`, `"L1Bytes":24576,"L1Ways":3`} {
			sp := JobSpec{Workload: "gcc", Scheme: sch,
				Config: json.RawMessage(`{"WarmupInstr":5000,"MeasureInstr":10000,` + o + `}`)}
			resp, v := postJob(t, ts, sp)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s with %s: HTTP %d", sch, o, resp.StatusCode)
			}
			final := pollUntil(t, ts, v.ID, time.Minute, func(v JobView) bool { return v.Status.Terminal() })
			if final.Status != StatusDone {
				t.Errorf("%s with %s: job %s (error %q)", sch, o, final.Status, final.Error)
			}
		}
	}
}

// morcConfigJSON renders the paper's default MORC configuration with
// activeLogs active logs, as a MORCConfig override.
func morcConfigJSON(t *testing.T, activeLogs int) string {
	mc := core.DefaultConfig(128 << 10)
	mc.ActiveLogs = activeLogs
	b, err := json.Marshal(mc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCatalogEndpoints checks /v1/schemes and /v1/workloads against the
// canonical lists.
func TestCatalogEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	resp, err := http.Get(ts.URL + "/v1/schemes")
	if err != nil {
		t.Fatal(err)
	}
	var schemes struct {
		Schemes []string `json:"schemes"`
	}
	json.NewDecoder(resp.Body).Decode(&schemes)
	resp.Body.Close()
	if len(schemes.Schemes) != len(sim.AllSchemes()) {
		t.Errorf("schemes = %v", schemes.Schemes)
	}
	for i, sch := range sim.AllSchemes() {
		if schemes.Schemes[i] != sch.String() {
			t.Errorf("scheme[%d] = %q, want %q", i, schemes.Schemes[i], sch.String())
		}
	}

	resp, err = http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	var cat Catalog
	json.NewDecoder(resp.Body).Decode(&cat)
	resp.Body.Close()
	if len(cat.Workloads) != 54 {
		t.Errorf("workloads = %d, want 54", len(cat.Workloads))
	}
	if len(cat.Mixes) != 12 {
		t.Errorf("mixes = %d, want 12", len(cat.Mixes))
	}
	if len(cat.Experiments) != len(exp.IDs()) || len(cat.Experiments) == 0 {
		t.Errorf("experiments = %v", cat.Experiments)
	}
}

// TestExperimentJob runs a whole-table experiment (tab5: configuration
// reprint, no simulation) through the job pipeline and checks the Table
// JSON matches exp's own encoding.
func TestExperimentJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	_, v := postJob(t, ts, JobSpec{Experiment: "tab5"})
	final := pollUntil(t, ts, v.ID, time.Minute, func(v JobView) bool { return v.Status.Terminal() })
	if final.Status != StatusDone {
		t.Fatalf("experiment job = %s (error %q)", final.Status, final.Error)
	}
	if len(final.Tables) != 1 || final.Tables[0].ID != "tab5" {
		t.Fatalf("tables = %+v", final.Tables)
	}

	e, _ := exp.Get("tab5")
	want := e.Run(exp.Quick())
	got, _ := json.Marshal(final.Tables)
	ref, _ := json.Marshal(want)
	if string(got) != string(ref) {
		t.Errorf("experiment tables differ:\n got %s\nwant %s", got, ref)
	}
}

// TestMixJob runs a tiny 16-core mix job end to end.
func TestMixJob(t *testing.T) {
	if testing.Short() {
		t.Skip("mix job is slow")
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	_, v := postJob(t, ts, JobSpec{Mix: "S2", Scheme: sim.Uncompressed,
		Config: json.RawMessage(`{"WarmupInstr": 20000, "MeasureInstr": 30000}`)})
	final := pollUntil(t, ts, v.ID, 2*time.Minute, func(v JobView) bool { return v.Status.Terminal() })
	if final.Status != StatusDone {
		t.Fatalf("mix job = %s (error %q)", final.Status, final.Error)
	}
	if len(final.Result.Cores) != 16 {
		t.Errorf("mix result has %d cores, want 16", len(final.Result.Cores))
	}
}

// TestProgressAdvances: a running job's progress must move and stay in
// [0, 1].
func TestProgressAdvances(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	_, v := postJob(t, ts, longSpec())
	seen := pollUntil(t, ts, v.ID, 30*time.Second, func(v JobView) bool { return v.Progress > 0 })
	if seen.Progress < 0 || seen.Progress > 1 {
		t.Errorf("progress out of range: %v", seen.Progress)
	}
	cancelJob(t, ts, v.ID)
	pollUntil(t, ts, v.ID, 30*time.Second, func(v JobView) bool { return v.Status.Terminal() })
}
