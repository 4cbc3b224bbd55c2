package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"morc/internal/server"
	"morc/internal/server/client"
	"morc/internal/sim"
)

// The coordinator's GET /v1/jobs/{id} long-polls exactly like a single
// morcd's; these are the internal/server long-poll cases against it.

// getClusterJobWait GETs a cluster job with a ?wait= window and reports
// how long the answer took.
func getClusterJobWait(t *testing.T, ts *httptest.Server, id, wait string) (server.JobView, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=" + wait)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET ?wait=%s: HTTP %d", wait, resp.StatusCode)
	}
	var v server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v, time.Since(start)
}

// pendingJob submits a job to a coordinator without peers, where it
// stays queued until cancelled (which the cleanup does, so shutdown
// does not wait on it).
func pendingJob(t *testing.T, c *Coordinator) *cjob {
	t.Helper()
	j, err := c.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Cancel(j.id) })
	return j
}

func TestCoordinatorLongPollAnswersWhenJobFinishes(t *testing.T) {
	p := startPeer(t)
	_, ts := startCoordinator(t, testClusterCfg(p.URL()))
	v, err := client.New(ts.URL).Submit(context.Background(), server.JobSpec{
		Workload: "gcc", Scheme: sim.MORC,
		Config: json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 1000000}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, took := getClusterJobWait(t, ts, v.ID, "25s")
	if got.Status != server.StatusDone || got.Result == nil || got.ID != v.ID {
		t.Fatalf("long-poll answered %s for %s (result %v), want done with a result for %s", got.Status, got.ID, got.Result != nil, v.ID)
	}
	if took > 20*time.Second {
		t.Fatalf("long-poll took %v: it waited out the window instead of answering at completion", took)
	}
}

func TestCoordinatorLongPollWindowExpiresWithCurrentView(t *testing.T) {
	c, ts := startCoordinator(t, testClusterCfg()) // no peers: the job stays queued
	j := pendingJob(t, c)
	got, took := getClusterJobWait(t, ts, j.id, "300ms")
	if got.Status != server.StatusQueued {
		t.Fatalf("window expired with status %s, want queued", got.Status)
	}
	if took < 300*time.Millisecond {
		t.Fatalf("answered after %v, before the 300ms window passed", took)
	}
}

func TestCoordinatorLongPollRejectsBadWindows(t *testing.T) {
	c, ts := startCoordinator(t, testClusterCfg())
	j := pendingJob(t, c)
	for _, wait := range []string{"abc", "-1s", (server.MaxWait + time.Millisecond).String()} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.id + "?wait=" + wait)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("wait=%s: HTTP %d, want 400", wait, resp.StatusCode)
		}
	}
}

func TestCoordinatorLongPollCancelledRequestWritesNothing(t *testing.T) {
	c, _ := startCoordinator(t, testClusterCfg())
	j := pendingJob(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.id+"?wait=20s", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		c.Handler().ServeHTTP(rec, req)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still parked after its request was cancelled")
	}
	if rec.Body.Len() != 0 || rec.Header().Get("Content-Type") != "" {
		t.Fatalf("abandoned long-poll wrote a response: %q", rec.Body.String())
	}
}

// TestCoordinatorLongPollReleasedByShutdown: once coordination stops, a
// job that will never finish is answered at once with its current view.
func TestCoordinatorLongPollReleasedByShutdown(t *testing.T) {
	c, ts := startCoordinator(t, testClusterCfg())
	j := pendingJob(t, c)
	answered := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.id + "?wait=25s")
		if err != nil {
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c.Shutdown(ctx)
	select {
	case code := <-answered:
		if code != http.StatusOK {
			t.Fatalf("released long-poll: HTTP %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll still parked after the coordinator shut down")
	}
}
