package check_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"morc/internal/cluster"
	"morc/internal/cluster/clustertest"
	"morc/internal/server"
	"morc/internal/server/client"
	"morc/internal/sim"
)

// This file pins the cluster coordinator's headline contract: because
// morcd simulations are pure functions of their spec, a sweep submitted
// to a coordinator — however placement, work stealing, and failover
// shuffle the jobs across peers — must return Result JSON
// byte-identical to the same sweep run on a single morcd. The proxied
// SSE replay and timeseries streams must likewise be byte-identical to
// fetching them from the owning peer directly.

// clusterWindow keeps each sweep cell around 100ms so the sweeps stay
// fast while still crossing sampler boundaries.
const clusterWindow = `{"WarmupInstr": 20000, "MeasureInstr": 40000, "SampleEvery": 20000}`

// sweepSpecs is the small workload×scheme sweep the identity tests run.
func sweepSpecs() []server.JobSpec {
	var specs []server.JobSpec
	for _, wl := range []string{"gcc", "omnetpp", "mcf"} {
		for _, sch := range []sim.Scheme{sim.MORC, sim.Uncompressed} {
			specs = append(specs, server.JobSpec{
				Workload: wl,
				Scheme:   sch,
				Config:   json.RawMessage(clusterWindow),
			})
		}
	}
	return specs
}

// runSweep submits every spec against baseURL, waits for completion,
// and returns the marshalled Result of each in submission order.
func runSweep(t *testing.T, ctx context.Context, baseURL string, specs []server.JobSpec) [][]byte {
	t.Helper()
	cl := client.New(baseURL)
	ids := make([]string, len(specs))
	for i, spec := range specs {
		v, err := cl.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = v.ID
	}
	out := make([][]byte, len(specs))
	for i, id := range ids {
		v, err := cl.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if v.Status != server.StatusDone {
			t.Fatalf("job %s finished %s (%s)", id, v.Status, v.Error)
		}
		if v.Result == nil {
			t.Fatalf("job %s: no result", id)
		}
		out[i] = resultJSON(t, v.Result)
	}
	return out
}

func testClusterConfig(peers ...string) cluster.Config {
	return cluster.Config{
		Peers:         peers,
		SlotsPerPeer:  2,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		FailThreshold: 2,
		BackoffBase:   100 * time.Millisecond,
		BackoffMax:    time.Second,
		SubmitTimeout: 2 * time.Second,
		MaxRequeues:   8,
		NewClient: func(u string) *client.Client {
			return &client.Client{
				BaseURL:    u,
				HTTPClient: &http.Client{Timeout: 2 * time.Second},
				Retries:    1,
				Backoff:    25 * time.Millisecond,
			}
		},
	}
}

func startCheckCoordinator(t *testing.T, cfg cluster.Config) *httptest.Server {
	t.Helper()
	c := cluster.New(cfg)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return ts
}

func startCheckPeer(t *testing.T) *clustertest.FlakyPeer {
	t.Helper()
	p := clustertest.NewFlakyPeer(server.Config{Workers: 1, QueueDepth: 32})
	t.Cleanup(p.Close)
	return p
}

// TestClusterSweepMatchesDirectRun: the same sweep through a 2-peer
// coordinator and through one morcd directly yields byte-identical
// Result JSON, cell by cell.
func TestClusterSweepMatchesDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-job sweep; use the full (non -short) lane")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	specs := sweepSpecs()

	direct := server.New(server.Config{Workers: 1, QueueDepth: 32})
	directTS := httptest.NewServer(direct.Handler())
	t.Cleanup(func() {
		directTS.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		direct.Shutdown(sctx)
	})
	want := runSweep(t, ctx, directTS.URL, specs)

	p1, p2 := startCheckPeer(t), startCheckPeer(t)
	coordTS := startCheckCoordinator(t, testClusterConfig(p1.URL(), p2.URL()))
	got := runSweep(t, ctx, coordTS.URL, specs)

	for i := range specs {
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("spec %d (%s/%s): cluster result differs from direct run:\ndirect  %.300s\ncluster %.300s",
				i, specs[i].Workload, specs[i].Scheme, want[i], got[i])
		}
	}
	// Sanity: the sweep actually spread across the peers.
	if len(p1.Server.Jobs()) == 0 || len(p2.Server.Jobs()) == 0 {
		t.Fatalf("sweep not distributed: peer1 ran %d, peer2 ran %d",
			len(p1.Server.Jobs()), len(p2.Server.Jobs()))
	}
}

// TestClusterSweepSurvivesPeerKill: one peer drops off the network
// mid-sweep. The sweep must still complete, and every result must stay
// byte-identical to the single-node run — failover reruns jobs, it
// never changes their outcome.
func TestClusterSweepSurvivesPeerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-job sweep; use the full (non -short) lane")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	specs := sweepSpecs()

	direct := server.New(server.Config{Workers: 1, QueueDepth: 32})
	directTS := httptest.NewServer(direct.Handler())
	t.Cleanup(func() {
		directTS.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		direct.Shutdown(sctx)
	})
	want := runSweep(t, ctx, directTS.URL, specs)

	doomed, survivor := startCheckPeer(t), startCheckPeer(t)
	coordTS := startCheckCoordinator(t, testClusterConfig(doomed.URL(), survivor.URL()))
	cl := client.New(coordTS.URL)

	ids := make([]string, len(specs))
	for i, spec := range specs {
		v, err := cl.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = v.ID
	}
	// Let the sweep get going, then kill one peer mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for len(doomed.Server.Jobs()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("doomed peer never received work")
		}
		time.Sleep(5 * time.Millisecond)
	}
	doomed.SetBlackhole(true)

	for i, id := range ids {
		v, err := cl.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if v.Status != server.StatusDone {
			t.Fatalf("job %s finished %s (%s) after peer kill", id, v.Status, v.Error)
		}
		got := resultJSON(t, v.Result)
		if !bytes.Equal(want[i], got) {
			t.Errorf("spec %d (%s/%s): result diverged after failover:\ndirect  %.300s\ncluster %.300s",
				i, specs[i].Workload, specs[i].Scheme, want[i], got)
		}
	}
}

// placementOf resolves where a cluster job ran via the coordinator's
// introspection endpoint.
func placementOf(t *testing.T, coordURL, id string) cluster.PlacementView {
	t.Helper()
	resp, err := http.Get(coordURL + "/v1/cluster/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pv cluster.PlacementView
	if err := json.NewDecoder(resp.Body).Decode(&pv); err != nil {
		t.Fatal(err)
	}
	return pv
}

func fetchBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterProxyStreamsByteIdentical: for a finished telemetry job,
// the SSE replay stream and the timeseries fetched through the
// coordinator are byte-for-byte what the owning peer serves directly.
func TestClusterProxyStreamsByteIdentical(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	p := startCheckPeer(t)
	coordTS := startCheckCoordinator(t, testClusterConfig(p.URL()))
	cl := client.New(coordTS.URL)

	spec := server.JobSpec{
		Workload:  "gcc",
		Scheme:    sim.MORC,
		Config:    json.RawMessage(clusterWindow),
		Telemetry: 10_000,
	}
	v, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := cl.Wait(ctx, v.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	pv := placementOf(t, coordTS.URL, v.ID)
	if pv.Peer != p.URL() || pv.RemoteID == "" {
		t.Fatalf("placement = %+v, want the single peer", pv)
	}

	// SSE replay of a finished job is a complete, finite stream on both
	// paths; it embeds the peer-local job ID, so verbatim pass-through
	// means the bytes agree exactly.
	viaCoord := fetchBytes(t, coordTS.URL+"/v1/jobs/"+v.ID+"/events")
	viaPeer := fetchBytes(t, p.URL()+"/v1/jobs/"+pv.RemoteID+"/events")
	if !bytes.Equal(viaCoord, viaPeer) {
		t.Errorf("proxied SSE replay differs from the peer's:\ncoord %.400s\npeer  %.400s", viaCoord, viaPeer)
	}
	if !bytes.Contains(viaCoord, []byte("event: done")) {
		t.Errorf("replay stream missing done frame:\n%.400s", viaCoord)
	}

	tsCoord := fetchBytes(t, coordTS.URL+"/v1/jobs/"+v.ID+"/timeseries")
	tsPeer := fetchBytes(t, p.URL()+"/v1/jobs/"+pv.RemoteID+"/timeseries")
	if !bytes.Equal(tsCoord, tsPeer) {
		t.Errorf("proxied timeseries differs from the peer's:\ncoord %.400s\npeer  %.400s", tsCoord, tsPeer)
	}
	if len(tsCoord) == 0 {
		t.Error("timeseries is empty")
	}
}
