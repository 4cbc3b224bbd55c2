package check_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"morc/internal/obs"
	"morc/internal/server"
	"morc/internal/server/client"
	"morc/internal/sim"
)

// This file pins the observability layer's determinism contract: a
// trace's *shape* — span names, hierarchy, and attributes — is a pure
// function of the job spec, exactly like the Result JSON the other
// files in this package pin. Durations and ids differ run to run by
// nature; obs.ShapeOf excludes them. The sim-phase spans are derived
// from instruction counts, never wall-clock, which is what makes this
// byte-level identity possible at all.

// tracedSpec is a quick job: its trace carries the job, queue and run
// spans and, under run, the warmup and measure phase spans.
func tracedSpec() server.JobSpec {
	return server.JobSpec{
		Workload: "gcc",
		Scheme:   sim.MORC,
		Config:   json.RawMessage(clusterWindow),
	}
}

// traceOf submits spec against baseURL, waits it to done, and returns
// the exported trace.
func traceOf(t *testing.T, ctx context.Context, baseURL string, spec server.JobSpec) obs.TraceExport {
	t.Helper()
	cl := client.New(baseURL)
	v, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := cl.Wait(ctx, v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.Status != server.StatusDone {
		t.Fatalf("job finished %s (%s)", final.Status, final.Error)
	}
	te, err := cl.Trace(ctx, v.ID)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return te
}

// startTraceServer stands up a fresh single-node morcd.
func startTraceServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := server.New(server.Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ts
}

// TestTraceShapeDeterministic: the same spec run twice (on fresh
// servers, so nothing is shared) yields byte-identical span trees.
func TestTraceShapeDeterministic(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	spec := tracedSpec()

	spans := traceOf(t, ctx, startTraceServer(t).URL, spec).Spans
	a := obs.ShapeOf(spans)
	b := obs.ShapeOf(traceOf(t, ctx, startTraceServer(t).URL, spec).Spans)
	if a != b {
		t.Errorf("same-seed span trees differ:\nrun A:\n%s\nrun B:\n%s", a, b)
	}
	// The shape must actually cover the run, not vacuously match.
	for _, want := range []string{"morcd:job", "morcd:queue", "morcd:run"} {
		if !strings.Contains(a, want) {
			t.Errorf("span tree lacks %s:\n%s", want, a)
		}
	}
	// Under run: exactly one warmup and one measure phase.
	var runID string
	for _, sp := range spans {
		if sp.Name == "run" {
			runID = sp.SpanID
		}
	}
	phases := map[string]int{}
	for _, sp := range spans {
		if sp.ParentID == runID {
			phases[sp.Name]++
		}
	}
	if want := map[string]int{"sim.warmup": 1, "sim.measure": 1}; runID == "" || !reflect.DeepEqual(phases, want) {
		t.Errorf("spans under run = %v, want %v:\n%s", phases, want, a)
	}
}

// TestClusterTraceShapeMatchesSingleNode: the peer-side spans of a
// cluster job's merged trace have exactly the shape of the same spec's
// single-node trace — dispatch through a coordinator adds its own spans
// above but never changes what the worker records.
func TestClusterTraceShapeMatchesSingleNode(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	spec := tracedSpec()

	single := obs.ShapeOf(traceOf(t, ctx, startTraceServer(t).URL, spec).Spans)

	p := startCheckPeer(t)
	coordTS := startCheckCoordinator(t, testClusterConfig(p.URL()))
	merged := traceOf(t, ctx, coordTS.URL, spec)
	var peerSpans []obs.Span
	coordSpans := 0
	for _, sp := range merged.Spans {
		switch sp.Service {
		case "morcd":
			peerSpans = append(peerSpans, sp)
		case "coordinator":
			coordSpans++
		}
	}
	if coordSpans == 0 {
		t.Fatal("merged trace has no coordinator spans")
	}
	if got := obs.ShapeOf(peerSpans); got != single {
		t.Errorf("peer span tree differs from single-node run:\nsingle:\n%s\ncluster peer:\n%s", single, got)
	}
}
