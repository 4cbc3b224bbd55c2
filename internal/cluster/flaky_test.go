package cluster

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"morc/internal/server"
	"morc/internal/server/client"
)

// TestSweepSurvivesTransientFaults: a peer that 500s every other
// job-API request is absorbed entirely by the dispatch client's
// retries — the sweep completes without a single failover and the
// peer is never ejected. (Probe-path faults, which rightly DO eject,
// are exercised by the stall and blackhole tests.)
func TestSweepSurvivesTransientFaults(t *testing.T) {
	p := startPeer(t)
	p.SetFailEvery(2)

	cfg := testClusterCfg(p.URL())
	cfg.NewClient = func(u string) *client.Client {
		return &client.Client{
			BaseURL:    u,
			HTTPClient: &http.Client{Timeout: 2 * time.Second},
			Retries:    3,
			Backoff:    10 * time.Millisecond,
		}
	}
	c, ts := startCoordinator(t, cfg)
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 0; i < 3; i++ {
		v, err := cl.Submit(ctx, fastSpec())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		final, err := cl.Wait(ctx, v.ID)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if final.Status != server.StatusDone {
			t.Fatalf("job %d finished %s (%s)", i, final.Status, final.Error)
		}
	}
	if got := c.metrics.snapshot().Requeued; got != 0 {
		t.Fatalf("transient faults caused %d failovers, want 0", got)
	}
	if !c.reg.isUp(p.URL()) {
		t.Fatal("peer ejected despite only transient faults")
	}
}

// TestRunnerLongPollsItsPeer: a runner learns of its job's completion
// from a long-poll the peer answers when the job ends, so the job costs
// the peer its submit and a long-poll or two, whatever its length; a
// fixed 25ms poll would make one request per 25ms of the job.
func TestRunnerLongPollsItsPeer(t *testing.T) {
	p := startPeer(t)
	// Windows long enough that even a race-instrumented run of the job
	// fits in one.
	cfg := testClusterCfg(p.URL())
	cfg.SubmitTimeout = 20 * time.Second
	cfg.NewClient = func(u string) *client.Client {
		return &client.Client{BaseURL: u, HTTPClient: &http.Client{Timeout: 20 * time.Second}, Retries: 1}
	}
	_, ts := startCoordinator(t, cfg)
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := fastSpec()
	// Long enough to outlast 4 polls of 25ms with room to spare on a
	// fast host: about a quarter second on a 2-CPU host.
	spec.Config = []byte(`{"WarmupInstr": 10000, "MeasureInstr": 3000000}`)
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
	// The bound of 3 below tells long-polling from polling only if a 25ms
	// poller would have needed more: at least its submit and 4 polls.
	const poll, maxRequests = 25 * time.Millisecond, 3
	if d := time.Duration(final.DurationSec * float64(time.Second)); d <= (maxRequests+1)*poll {
		t.Fatalf("job ran %v; it must outlast %d polls of %v for this test to mean anything", d, maxRequests+1, poll)
	}
	if n := p.Requests(); n > maxRequests {
		t.Fatalf("peer served %d requests for one job, want <= %d (submit + long-polls)", n, maxRequests)
	}
}

// TestClientRetryHonorsContextCancellation: cancelling the context
// mid-backoff must abort the retry loop immediately, not after the
// remaining attempts run their course.
func TestClientRetryHonorsContextCancellation(t *testing.T) {
	p := startPeer(t)
	p.SetBlackhole(true)

	cl := &client.Client{
		BaseURL:    p.URL(),
		HTTPClient: &http.Client{Timeout: 2 * time.Second},
		Retries:    10,
		Backoff:    300 * time.Millisecond, // 10 retries ≈ 5 minutes if ignored
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := cl.Submit(ctx, fastSpec())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("submit to a blackholed peer succeeded")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("retry loop ran %v after cancellation, want prompt abort", elapsed)
	}
}

// TestMidSSEDisconnectAndReplay: a stream severed mid-flight surfaces
// as a read error, and a fresh subscription replays the buffered epochs
// from the start — the coordinator's proxy inherits both properties.
func TestMidSSEDisconnectAndReplay(t *testing.T) {
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
	if _, err := cl.Wait(ctx, v.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}

	// Sever the next stream a few hundred bytes in.
	p.SetDropSSEAfter(300)
	body, err := cl.Events(ctx, v.ID)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	truncated, readErr := io.ReadAll(body)
	body.Close()
	if readErr == nil && strings.Contains(string(truncated), "event: done") {
		t.Fatal("stream was not severed")
	}
	if len(truncated) > 300 {
		t.Fatalf("read %d bytes through a 300-byte cut", len(truncated))
	}

	// Heal the peer and re-subscribe: the replay starts over and runs to
	// the done frame.
	p.SetDropSSEAfter(0)
	body, err = cl.Events(ctx, v.ID)
	if err != nil {
		t.Fatalf("re-subscribe: %v", err)
	}
	full, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		t.Fatalf("read replay: %v", err)
	}
	text := string(full)
	if !strings.Contains(text, "event: epoch") || !strings.Contains(text, "event: done") {
		t.Fatalf("replayed stream incomplete:\n%s", text)
	}
	if len(full) <= len(truncated) {
		t.Fatalf("replay (%d bytes) not longer than the severed read (%d bytes)", len(full), len(truncated))
	}
}

// TestStalledPeerEjectedByProbeTimeout: a peer that accepts
// connections but never answers within the probe timeout is as dead as
// one that refuses them.
func TestStalledPeerEjectedByProbeTimeout(t *testing.T) {
	p := startPeer(t)
	p.SetStall(5 * time.Second) // well past the 500ms probe timeout

	cfg := testClusterCfg(p.URL())
	c, _ := startCoordinator(t, cfg)

	deadline := time.Now().Add(10 * time.Second)
	for c.reg.isUp(p.URL()) {
		if time.Now().After(deadline) {
			t.Fatal("stalled peer never ejected")
		}
		time.Sleep(25 * time.Millisecond)
	}
	// Heal it; the backoff probes must re-admit it.
	p.SetStall(0)
	deadline = time.Now().Add(10 * time.Second)
	for !c.reg.isUp(p.URL()) {
		if time.Now().After(deadline) {
			t.Fatal("healed peer never re-admitted")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestResurrectedPeerRerunsUnderNewEpoch: the only peer goes dark
// while a job runs. The job is requeued (exactly once) and — with
// nowhere else to go — waits. When the peer comes back it is
// re-admitted and reruns the job under the next epoch, while the
// orphaned first run, which kept simulating through the partition,
// finishes on the worker without ever touching the cluster job's
// state. Determinism makes the outcome indistinguishable from a clean
// run.
func TestResurrectedPeerRerunsUnderNewEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation; run without -short")
	}
	p := startPeer(t)

	cfg := testClusterCfg(p.URL())
	c, ts := startCoordinator(t, cfg)
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Long enough to survive the dark window on the worker.
	spec := server.JobSpec{
		Workload: "gcc",
		Scheme:   fastSpec().Scheme,
		Config:   []byte(`{"WarmupInstr": 10000, "MeasureInstr": 2000000}`),
	}
	v, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Wait for binding, then cut the network. The worker keeps running.
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
	p.SetBlackhole(true)

	// The failover requeues the job exactly once, then it waits for a
	// peer.
	deadline = time.Now().Add(10 * time.Second)
	for {
		j, _ := c.Job(v.ID)
		if _, _, _, requeues, _ := j.placement(); requeues == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never failed over")
		}
		time.Sleep(10 * time.Millisecond)
	}
	p.SetBlackhole(false)

	final, err := cl.Wait(ctx, v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.Status != server.StatusDone {
		t.Fatalf("job finished %s (%s), want done", final.Status, final.Error)
	}
	j, _ := c.Job(v.ID)
	_, _, epoch, requeues, _ := j.placement()
	if epoch != 2 || requeues != 1 {
		t.Fatalf("epoch = %d, requeues = %d; want the rerun generation (2, 1)", epoch, requeues)
	}
	if got := c.metrics.snapshot().Requeued; got != 1 {
		t.Fatalf("cluster requeues = %d, want exactly 1", got)
	}
	// Both the orphaned generation-1 run and the generation-2 rerun hit
	// the worker; the cluster job adopted exactly one of them.
	if n := len(p.Server.Jobs()); n != 2 {
		t.Fatalf("worker ran %d jobs, want 2 (orphan + rerun)", n)
	}
}
