package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"morc/internal/cluster/clustertest"
	"morc/internal/server"
	"morc/internal/server/client"
	"morc/internal/sim"
)

// fastSpec is a job small enough to finish in ~100ms, so integration
// tests that shepherd several of them stay quick.
func fastSpec() server.JobSpec {
	return server.JobSpec{
		Workload: "gcc",
		Scheme:   sim.MORC,
		Config:   json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 50000}`),
	}
}

// testClusterCfg shrinks every timing knob so health transitions and
// failover happen in tens of milliseconds instead of seconds.
func testClusterCfg(peers ...string) Config {
	return Config{
		Peers:         peers,
		SlotsPerPeer:  2,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		FailThreshold: 2,
		BackoffBase:   100 * time.Millisecond,
		BackoffMax:    time.Second,
		SubmitTimeout: 2 * time.Second,
		MaxRequeues:   3,
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

// startCoordinator runs a coordinator and its HTTP front-end, torn down
// with the test.
func startCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := New(cfg)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return c, ts
}

func startPeer(t *testing.T) *clustertest.FlakyPeer {
	t.Helper()
	p := clustertest.NewFlakyPeer(server.Config{Workers: 1, QueueDepth: 32})
	t.Cleanup(p.Close)
	return p
}

func TestClusterSubmitAndComplete(t *testing.T) {
	p1, p2 := startPeer(t), startPeer(t)
	_, ts := startCoordinator(t, testClusterCfg(p1.URL(), p2.URL()))
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const n = 6
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		v, err := cl.Submit(ctx, fastSpec())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if !strings.HasPrefix(v.ID, "c") {
			t.Fatalf("cluster job ID = %q, want c-prefixed", v.ID)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		v, err := cl.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if v.Status != server.StatusDone {
			t.Fatalf("job %s finished %s (%s), want done", id, v.Status, v.Error)
		}
		if v.ID != id {
			t.Fatalf("view ID = %q, want cluster ID %q", v.ID, id)
		}
		if v.Result == nil {
			t.Fatalf("job %s: no result", id)
		}
	}

	// Both peers pulled work: with 6 jobs, 2 slots per peer, and a
	// single worker per peer, neither side can swallow the whole sweep.
	jobs1 := len(p1.Server.Jobs())
	jobs2 := len(p2.Server.Jobs())
	if jobs1+jobs2 != n {
		t.Fatalf("peer jobs = %d + %d, want %d total", jobs1, jobs2, n)
	}
	if jobs1 == 0 || jobs2 == 0 {
		t.Fatalf("work not spread: peer1 ran %d, peer2 ran %d", jobs1, jobs2)
	}
}

// TestFailoverToHealthyPeer kills a peer before it can accept work and
// checks the dispatch-path failover: the job must land on the healthy
// peer, exactly one remote job may exist for it, and the coordinator's
// requeue accounting must agree with the job's own failover count.
func TestFailoverToHealthyPeer(t *testing.T) {
	dead, alive := startPeer(t), startPeer(t)
	dead.SetBlackhole(true)

	// Only the doomed peer is registered at submit time, so the job
	// must be claimed by it and fail over; registering both up front
	// would race the initial pull — the healthy peer's slot could win
	// and the test would prove nothing.
	cfg := testClusterCfg(dead.URL())
	cfg.MaxRequeues = 10 // the doomed peer may bounce the job a few times
	c, ts := startCoordinator(t, cfg)
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	v, err := cl.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Wait for the first failover before offering the healthy peer.
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, ok := c.Job(v.ID)
		if !ok {
			t.Fatal("job vanished from the coordinator")
		}
		if _, _, _, requeues, _ := j.placement(); requeues >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never failed over from the blackholed peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.AddPeer(alive.URL())

	final, err := cl.Wait(ctx, v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.Status != server.StatusDone {
		t.Fatalf("job finished %s (%s), want done", final.Status, final.Error)
	}

	// Exactly one remote job: if a failover generation ever double-fired,
	// the healthy peer would have been handed the job twice.
	if n := len(alive.Server.Jobs()); n != 1 {
		t.Fatalf("healthy peer ran %d jobs, want exactly 1", n)
	}
	if n := len(dead.Server.Jobs()); n != 0 {
		t.Fatalf("blackholed peer accepted %d jobs, want 0", n)
	}

	// The coordinator-wide requeue counter must equal the job's own
	// failover count — each generation was requeued at most once.
	j, ok := c.Job(v.ID)
	if !ok {
		t.Fatal("job vanished from the coordinator")
	}
	_, _, _, requeues, _ := j.placement()
	if requeues == 0 {
		t.Fatal("job never failed over, test proved nothing")
	}
	if got := c.metrics.snapshot().Requeued; got != uint64(requeues) {
		t.Fatalf("cluster requeues = %d, job requeues = %d: a generation was requeued more than once", got, requeues)
	}

	// The dead peer was ejected along the way.
	for _, p := range c.Peers() {
		if p.URL == dead.URL() && p.State != stateDown {
			t.Fatalf("blackholed peer still %s", p.State)
		}
	}
}

// TestMidRunPeerKillFailsOver is the headline failover: a job is
// RUNNING on a peer when the peer drops off the network. The prober
// must eject the peer, requeue the job exactly once, and the other
// peer must rerun it to done.
func TestMidRunPeerKillFailsOver(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation; run without -short")
	}
	doomed, alive := startPeer(t), startPeer(t)

	cfg := testClusterCfg(doomed.URL())
	c, ts := startCoordinator(t, cfg)
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// ~3s of simulation: long enough to still be running when the peer
	// dies, short enough to rerun to completion.
	spec := server.JobSpec{
		Workload: "gcc",
		Scheme:   sim.MORC,
		Config:   json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 3000000}`),
	}
	v, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Wait until the job is bound to the doomed peer, then cut the cord.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := c.Job(v.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		peer, remote, _, _, _ := j.placement()
		if peer == doomed.URL() && remote != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never bound to the doomed peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	doomed.SetBlackhole(true)
	c.AddPeer(alive.URL())

	final, err := cl.Wait(ctx, v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.Status != server.StatusDone {
		t.Fatalf("job finished %s (%s), want done", final.Status, final.Error)
	}
	if n := len(alive.Server.Jobs()); n != 1 {
		t.Fatalf("takeover peer ran %d jobs, want exactly 1", n)
	}
	j, _ := c.Job(v.ID)
	_, _, _, requeues, _ := j.placement()
	if requeues != 1 {
		t.Fatalf("requeues = %d, want exactly 1 for a single peer death", requeues)
	}
	// The takeover is credited as a steal.
	for _, p := range c.Peers() {
		if p.URL == alive.URL() && p.Stolen != 1 {
			t.Fatalf("takeover peer stolen = %d, want 1", p.Stolen)
		}
	}
}

func TestQueueFullRejectsWith429(t *testing.T) {
	cfg := testClusterCfg() // no peers: nothing drains the queue
	cfg.QueueDepth = 1
	c, ts := startCoordinator(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Retries=0: a 429 must surface, not be retried away.
	cl := &client.Client{BaseURL: ts.URL, HTTPClient: &http.Client{Timeout: 2 * time.Second}}
	first, err := cl.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err = cl.Submit(ctx, fastSpec())
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit err = %v, want HTTP 429", err)
	}
	// The rejected job must not haunt the job table.
	if _, err := cl.Job(ctx, "c000002"); err == nil {
		t.Fatal("rejected job is listed")
	}
	if got := c.metrics.snapshot().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// Unblock shutdown: the stuck pending job would otherwise hold the
	// drain until its deadline.
	if _, err := cl.Cancel(ctx, first.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
}

func TestCancelPendingJob(t *testing.T) {
	_, ts := startCoordinator(t, testClusterCfg()) // no peers: stays queued
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	v, err := cl.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got, err := cl.Cancel(ctx, v.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if got.Status != server.StatusCancelled {
		t.Fatalf("status = %s, want cancelled", got.Status)
	}
	// Proxied endpoints must 404, not hang, for a job that never ran.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events on never-ran job: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestCancelRunningJobPropagatesToPeer(t *testing.T) {
	p := startPeer(t)
	c, ts := startCoordinator(t, testClusterCfg(p.URL()))
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Effectively unbounded: only the cancel ends it.
	spec := server.JobSpec{
		Workload: "gcc",
		Scheme:   sim.MORC,
		Config:   json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 4000000000}`),
	}
	v, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Wait for it to bind so the cancel has a remote to hit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, _ := c.Job(v.ID)
		if _, remote, _, _, _ := j.placement(); remote != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never dispatched")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := cl.Cancel(ctx, v.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := cl.Wait(ctx, v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.Status != server.StatusCancelled {
		t.Fatalf("status = %s, want cancelled", final.Status)
	}
}

func TestJoinEndpoint(t *testing.T) {
	p := startPeer(t)
	c, ts := startCoordinator(t, testClusterCfg())
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := cl.Join(ctx, p.URL()); err != nil {
		t.Fatalf("join: %v", err)
	}
	if got := len(c.Peers()); got != 1 {
		t.Fatalf("peers after join = %d, want 1", got)
	}
	// Idempotent: re-announcing is how workers heartbeat.
	if err := cl.Join(ctx, p.URL()); err != nil {
		t.Fatalf("re-join: %v", err)
	}
	if got := len(c.Peers()); got != 1 {
		t.Fatalf("peers after re-join = %d, want 1", got)
	}

	// The joined peer serves real traffic.
	v, err := cl.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := cl.Wait(ctx, v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.Status != server.StatusDone {
		t.Fatalf("job on joined peer finished %s", final.Status)
	}

	// Garbage URLs are rejected.
	for _, bad := range []string{"", "not-a-url", "ftp://x", "/relative"} {
		body, _ := json.Marshal(struct {
			URL string `json:"url"`
		}{bad})
		resp, err := http.Post(ts.URL+"/v1/cluster/join", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("join %q: %v", bad, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("join %q: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	p := startPeer(t)
	_, ts := startCoordinator(t, testClusterCfg(p.URL()))
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	v, err := cl.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := cl.Wait(ctx, v.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"morcd_cluster_peers{state=\"up\"} 1",
		"morcd_cluster_jobs_submitted_total 1",
		"morcd_cluster_jobs_total{status=\"done\"} 1",
		fmt.Sprintf("morcd_cluster_peer_up{peer=%q} 1", p.URL()),
		fmt.Sprintf("morcd_cluster_dispatched_total{peer=%q} 1", p.URL()),
		"morcd_cluster_jobs_pending 0",
		"morcd_cluster_late_results_discarded_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestPlacementEndpoint(t *testing.T) {
	p := startPeer(t)
	_, ts := startCoordinator(t, testClusterCfg(p.URL()))
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	v, err := cl.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := cl.Wait(ctx, v.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}

	resp, err := http.Get(ts.URL + "/v1/cluster/jobs/" + v.ID)
	if err != nil {
		t.Fatalf("placement: %v", err)
	}
	defer resp.Body.Close()
	var pv PlacementView
	if err := json.NewDecoder(resp.Body).Decode(&pv); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if pv.ID != v.ID || pv.Peer != p.URL() || pv.RemoteID == "" || !pv.Terminal {
		t.Fatalf("placement = %+v", pv)
	}
	if pv.Epoch != 1 || pv.Requeues != 0 {
		t.Fatalf("clean run placement = %+v, want epoch 1, no requeues", pv)
	}
}

// TestProxyStreamsSSEAndTimeseries smoke-tests the byte-stream proxy;
// internal/check pins byte-identity against the owning peer.
func TestProxyStreamsSSEAndTimeseries(t *testing.T) {
	p := startPeer(t)
	_, ts := startCoordinator(t, testClusterCfg(p.URL()))
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := fastSpec()
	spec.Telemetry = 10000
	v, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// The SSE proxy waits for placement, streams, and ends after "done".
	body, err := cl.Events(ctx, v.ID)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer body.Close()
	stream, err := io.ReadAll(body)
	if err != nil {
		t.Fatalf("read events: %v", err)
	}
	if !strings.Contains(string(stream), "event: done") {
		t.Fatalf("proxied SSE stream has no done frame:\n%s", stream)
	}
	if !strings.Contains(string(stream), "event: epoch") {
		t.Fatalf("proxied SSE stream has no telemetry epochs:\n%s", stream)
	}

	series, err := cl.Timeseries(ctx, v.ID)
	if err != nil {
		t.Fatalf("timeseries: %v", err)
	}
	if len(series.Epochs) == 0 {
		t.Fatal("proxied timeseries is empty")
	}
}

func TestCatalogServedLocally(t *testing.T) {
	// No peers at all: schemes/workloads are stateless and must work.
	_, ts := startCoordinator(t, testClusterCfg())
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	schemes, err := cl.Schemes(ctx)
	if err != nil || len(schemes) == 0 {
		t.Fatalf("schemes = %v, %v", schemes, err)
	}
	cat, err := cl.Catalog(ctx)
	if err != nil || len(cat.Workloads) == 0 {
		t.Fatalf("catalog = %+v, %v", cat, err)
	}
}

func TestShutdownRejectsNewJobs(t *testing.T) {
	p := startPeer(t)
	c, ts := startCoordinator(t, testClusterCfg(p.URL()))
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := c.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	_, err := cl.Submit(ctx, fastSpec())
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown err = %v, want HTTP 503", err)
	}
}
