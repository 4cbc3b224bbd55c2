package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"morc/internal/obs"
	"morc/internal/server"
	"morc/internal/server/client"
	"morc/internal/sim"
)

// tracedClusterSpec is a quick gcc job: the peer half of its trace
// carries the warmup and measure phase spans.
func tracedClusterSpec() server.JobSpec {
	return server.JobSpec{
		Workload: "gcc",
		Scheme:   sim.MORC,
		Config:   json.RawMessage(`{"WarmupInstr": 60000, "MeasureInstr": 90000, "SampleEvery": 30000}`),
	}
}

// TestClusterTraceMergedWithPeer pins the headline trace guarantee: one
// cluster job yields one exportable trace covering the client
// submit, coordinator queue/dispatch, peer queue/run, and every sim
// phase, with exact parent-child linkage across all three services —
// and the peer-side spans in the merged export are byte-identical to
// the peer's own export.
func TestClusterTraceMergedWithPeer(t *testing.T) {
	p1 := startPeer(t)
	co, ts := startCoordinator(t, testClusterCfg(p1.URL()))
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	v, sc, err := cl.SubmitTraced(ctx, tracedClusterSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID != sc.TraceID.String() {
		t.Fatalf("cluster job trace %s did not adopt the client's %s", v.TraceID, sc.TraceID)
	}
	done, err := cl.Wait(ctx, v.ID)
	if err != nil || done.Status != server.StatusDone {
		t.Fatalf("wait: %v status=%s err=%s", err, done.Status, done.Error)
	}

	te, err := cl.Trace(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if te.TraceID != v.TraceID {
		t.Fatalf("exported trace %s, want %s", te.TraceID, v.TraceID)
	}
	byName := map[string][]obs.Span{}
	for _, sp := range te.Spans {
		byName[sp.Service+":"+sp.Name] = append(byName[sp.Service+":"+sp.Name], sp)
	}
	one := func(key string) obs.Span {
		t.Helper()
		sps := byName[key]
		if len(sps) != 1 {
			t.Fatalf("want exactly one %s span, got %d (%+v)", key, len(sps), sps)
		}
		return sps[0]
	}
	root := one("client:client.submit")
	if root.ParentID != "" || root.SpanID != sc.SpanID.String() {
		t.Fatalf("client root wrong: %+v", root)
	}
	cjobSp := one("coordinator:job")
	if cjobSp.ParentID != root.SpanID {
		t.Fatal("coordinator job not parented to the client submit span")
	}
	if one("coordinator:queue").ParentID != cjobSp.SpanID {
		t.Fatal("coordinator queue span not under its job")
	}
	dispatch := one("coordinator:dispatch")
	if dispatch.ParentID != cjobSp.SpanID {
		t.Fatal("dispatch span not under the coordinator job")
	}
	if dispatch.Attrs["peer"] != p1.URL() || dispatch.Attrs["stolen"] != "false" {
		t.Fatalf("dispatch attrs wrong: %+v", dispatch.Attrs)
	}
	peerJob := one("morcd:job")
	if peerJob.ParentID != dispatch.SpanID {
		t.Fatal("peer job not parented to the dispatch span — traceparent did not propagate")
	}
	run := one("morcd:run")
	if run.ParentID != peerJob.SpanID {
		t.Fatal("peer run span not under the peer job")
	}
	for _, phase := range []string{"morcd:sim.warmup", "morcd:sim.measure"} {
		if one(phase).ParentID != run.SpanID {
			t.Fatalf("%s span not under run", phase)
		}
	}

	// Coordinator-proxied trace ≡ peer trace: the peer-side spans in the
	// merged export are exactly the peer's own export, verbatim.
	_, remoteID, _, _, _ := mustJob(t, co, v.ID).placement()
	peerTE, ok := p1.Server.Trace(remoteID)
	if !ok {
		t.Fatal("peer lost the trace")
	}
	var merged []obs.Span
	for _, sp := range te.Spans {
		if sp.Service == "morcd" {
			merged = append(merged, sp)
		}
	}
	if !reflect.DeepEqual(merged, peerTE.Spans) {
		t.Fatalf("peer spans in merged export differ from the peer's own:\n%+v\nvs\n%+v", merged, peerTE.Spans)
	}
}

func mustJob(t *testing.T, c *Coordinator, id string) *cjob {
	t.Helper()
	j, ok := c.Job(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	return j
}

func TestClusterOverview(t *testing.T) {
	p1, p2 := startPeer(t), startPeer(t)
	_, ts := startCoordinator(t, testClusterCfg(p1.URL(), p2.URL()))
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	v, err := cl.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, v.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/cluster/overview")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ov Overview
	if err := json.NewDecoder(resp.Body).Decode(&ov); err != nil {
		t.Fatal(err)
	}
	if len(ov.Peers) != 2 {
		t.Fatalf("overview lists %d peers, want 2", len(ov.Peers))
	}
	for _, p := range ov.Peers {
		if p.Status == nil {
			t.Fatalf("peer %s has no status (%s)", p.URL, p.StatusError)
		}
		if p.Status.Workers != 1 {
			t.Fatalf("peer %s reports %d workers, want 1", p.URL, p.Status.Workers)
		}
	}
	if ov.Totals.PeersUp != 2 || ov.Totals.Workers != 2 {
		t.Fatalf("totals wrong: %+v", ov.Totals)
	}
	if ov.Totals.JobsRun < 1 || ov.Submitted != 1 || ov.Done != 1 {
		t.Fatalf("counters wrong: %+v", ov)
	}
}

// TestOverviewReportsDownPeer: an unreachable peer still appears, down,
// with a status error instead of a snapshot.
func TestOverviewReportsDownPeer(t *testing.T) {
	p1 := startPeer(t)
	dead := startPeer(t)
	deadURL := dead.URL()
	dead.Close()
	c, _ := startCoordinator(t, testClusterCfg(p1.URL(), deadURL))

	// Wait for the prober to eject the dead peer.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ov := c.Overview()
		if ov.Totals.PeersDown == 1 {
			for _, p := range ov.Peers {
				if p.URL == deadURL {
					if p.Status != nil || p.StatusError == "" {
						t.Fatalf("dead peer has a status: %+v", p)
					}
					if p.Ejections != 1 {
						t.Fatalf("dead peer ejections = %d, want 1", p.Ejections)
					}
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead peer never reported down: %+v", ov.Totals)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
