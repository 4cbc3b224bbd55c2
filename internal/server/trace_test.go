package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"morc/internal/obs"
	"morc/internal/sim"
	"morc/internal/telemetry"
)

// tracedSpec is a quick gcc job, small enough to finish fast; its trace
// carries the sim warmup and measure phase spans.
func tracedSpec() JobSpec {
	return JobSpec{
		Workload: "gcc",
		Scheme:   sim.MORC,
		Config:   json.RawMessage(`{"WarmupInstr": 60000, "MeasureInstr": 90000, "SampleEvery": 30000}`),
	}
}

func getTrace(t *testing.T, ts *httptest.Server, id string) obs.TraceExport {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: HTTP %d", resp.StatusCode)
	}
	var te obs.TraceExport
	if err := json.NewDecoder(resp.Body).Decode(&te); err != nil {
		t.Fatal(err)
	}
	return te
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, v := postJob(t, ts, tracedSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if v.TraceID == "" {
		t.Fatal("JobView carries no trace_id")
	}
	done := pollUntil(t, ts, v.ID, 30*time.Second, func(v JobView) bool { return v.Status.Terminal() })
	if done.Status != StatusDone {
		t.Fatalf("job ended %s: %s", done.Status, done.Error)
	}

	te := getTrace(t, ts, v.ID)
	if te.TraceID != v.TraceID {
		t.Fatalf("trace id mismatch: %s vs %s", te.TraceID, v.TraceID)
	}
	byID := map[string]obs.Span{}
	byName := map[string][]obs.Span{}
	for _, sp := range te.Spans {
		byID[sp.SpanID] = sp
		byName[sp.Name] = append(byName[sp.Name], sp)
		if sp.End == 0 {
			t.Errorf("span %s left open", sp.Name)
		}
	}
	job := byName["job"]
	if len(job) != 1 || job[0].ParentID != "" || job[0].Service != "morcd" {
		t.Fatalf("job root wrong: %+v", job)
	}
	if job[0].Attrs["status"] != "done" || job[0].Attrs["kind"] != "MORC" {
		t.Fatalf("job attrs wrong: %+v", job[0].Attrs)
	}
	for _, name := range []string{"queue", "run"} {
		sps := byName[name]
		if len(sps) != 1 || sps[0].ParentID != job[0].SpanID {
			t.Fatalf("%s span not singly parented to job: %+v", name, sps)
		}
	}
	run := byName["run"][0]
	// The run has exactly one warmup and one measure phase, both under
	// run, and no other sim phase.
	simPhases := 0
	for _, sp := range te.Spans {
		if !strings.HasPrefix(sp.Name, "sim.") {
			continue
		}
		simPhases++
		if sp.ParentID != run.SpanID {
			t.Fatalf("sim phase %s not parented to run", sp.Name)
		}
		if sp.Attrs["instr"] == "" {
			t.Fatalf("phase span missing its instr attr: %+v", sp)
		}
	}
	if len(byName["sim.warmup"]) != 1 || len(byName["sim.measure"]) != 1 || simPhases != 2 {
		t.Fatalf("sim phase spans: %d warmup, %d measure, %d in all; want one warmup and one measure",
			len(byName["sim.warmup"]), len(byName["sim.measure"]), simPhases)
	}

	// NDJSON export: one parseable span per line, same count.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp2.Body)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(te.Spans) {
		t.Fatalf("NDJSON has %d lines, JSON %d spans", len(lines), len(te.Spans))
	}
}

func TestTraceClientSynthesis(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sc := obs.NewRoot()
	body, _ := json.Marshal(JobSpec{Workload: "gcc", Scheme: sim.MORC,
		Config: json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 20000}`)})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	obs.InjectClient(req.Header, sc)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if v.TraceID != sc.TraceID.String() {
		t.Fatalf("job trace %s did not adopt the client's %s", v.TraceID, sc.TraceID)
	}
	pollUntil(t, ts, v.ID, 30*time.Second, func(v JobView) bool { return v.Status.Terminal() })

	te := getTrace(t, ts, v.ID)
	var root, job *obs.Span
	for i := range te.Spans {
		switch te.Spans[i].Name {
		case "client.submit":
			root = &te.Spans[i]
		case "job":
			job = &te.Spans[i]
		}
	}
	if root == nil || root.Service != "client" || root.Attrs["synthesized"] != "true" {
		t.Fatalf("no synthesized client root: %+v", te.Spans)
	}
	if root.SpanID != sc.SpanID.String() || job == nil || job.ParentID != root.SpanID {
		t.Fatal("job span not parented to the client's propagated span")
	}
}

func TestTraceUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", resp.StatusCode)
	}
}

func TestStatusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, v := postJob(t, ts, JobSpec{Workload: "gcc", Scheme: sim.MORC,
		Config: json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 20000}`)})
	pollUntil(t, ts, v.ID, 30*time.Second, func(v JobView) bool { return v.Status.Terminal() })

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.Submitted != 1 || st.Done != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.UptimeSec <= 0 || st.QueueCapacity <= 0 {
		t.Fatalf("status missing gauges: %+v", st)
	}
}

// TestPublishEpochCountsDrops drives the SSE fan-out directly: a
// subscriber that never reads loses oldest frames, and every eviction is
// reported through onDrop (the hook the server wires to its Prometheus
// counter and rate-limited warn log).
func TestPublishEpochCountsDrops(t *testing.T) {
	var dropped int
	j := newJob("t1", JobSpec{}, nil, nil, func(n int) { dropped += n })
	_, _, cancel := j.subscribeEpochs()
	defer cancel()
	total := subBuffer + 10
	for i := 0; i < total; i++ {
		j.publishEpoch(telemetry.Epoch{})
	}
	if dropped != 10 {
		t.Fatalf("dropped = %d, want 10", dropped)
	}
}

// TestSSEDropMetric checks the counter lands in the exposition and the
// warn log is rate limited.
func TestSSEDropMetric(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.noteSSEDrops(3)
	s.noteSSEDrops(4)
	text := metricsText(t, ts)
	if !strings.Contains(text, "morcd_sse_dropped_frames_total 7") {
		t.Fatalf("exposition missing drop counter:\n%s", text)
	}
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusView
	json.NewDecoder(resp.Body).Decode(&st)
	if st.SSEDropped != 7 {
		t.Fatalf("status SSEDropped = %d, want 7", st.SSEDropped)
	}
}

// TestSpanHistogramsExposed: the queue/run/encode span-duration series
// appear after one finished job.
func TestSpanHistogramsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, v := postJob(t, ts, JobSpec{Workload: "gcc", Scheme: sim.MORC,
		Config: json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 20000}`)})
	pollUntil(t, ts, v.ID, 30*time.Second, func(v JobView) bool { return v.Status.Terminal() })
	text := metricsText(t, ts)
	for _, want := range []string{
		`morcd_span_duration_seconds_count{phase="queue"} 1`,
		`morcd_span_duration_seconds_count{phase="run"} 1`,
		`morcd_span_duration_seconds_bucket{phase="encode"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
