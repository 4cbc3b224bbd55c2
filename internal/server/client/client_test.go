package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"morc/internal/server"
	"morc/internal/sim"
)

func newBackend(t *testing.T, cfg server.Config) (*server.Server, *Client) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, New(ts.URL)
}

// TestSubmitWaitRoundTrip drives a quick job through the typed client.
func TestSubmitWaitRoundTrip(t *testing.T) {
	_, c := newBackend(t, server.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	v, err := c.Submit(ctx, server.JobSpec{
		Workload: "omnetpp", Scheme: sim.MORC,
		Config: json.RawMessage(`{"WarmupInstr": 50000, "MeasureInstr": 100000}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != server.StatusDone || final.Result == nil {
		t.Fatalf("final = %s (error %q), result nil=%v", final.Status, final.Error, final.Result == nil)
	}
	if final.Result.Scheme != sim.MORC {
		t.Errorf("result scheme = %v", final.Result.Scheme)
	}
}

// TestClientCancel cancels through the client.
func TestClientCancel(t *testing.T) {
	_, c := newBackend(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	v, err := c.Submit(ctx, server.JobSpec{
		Workload: "gcc", Scheme: sim.MORC,
		Config: json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 4000000000}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != server.StatusCancelled {
		t.Fatalf("final = %s, want cancelled", final.Status)
	}
}

// TestClientCatalog exercises the enumeration endpoints.
func TestClientCatalog(t *testing.T) {
	_, c := newBackend(t, server.Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	schemes, err := c.Schemes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(schemes) != len(sim.AllSchemes()) {
		t.Errorf("schemes = %v", schemes)
	}
	cat, err := c.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Workloads) == 0 || len(cat.Mixes) == 0 || len(cat.Experiments) == 0 {
		t.Errorf("catalog = %+v", cat)
	}
}

// TestRetryBackoff: the client must retry transient 5xx/429 responses
// and eventually succeed, but give up immediately on 4xx spec errors.
func TestRetryBackoff(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(server.JobView{ID: "j000001", Status: server.StatusQueued})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Backoff = time.Millisecond
	v, err := c.Submit(context.Background(), server.JobSpec{Workload: "gcc"})
	if err != nil {
		t.Fatalf("Submit after transient errors: %v", err)
	}
	if v.ID != "j000001" {
		t.Errorf("view = %+v", v)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
}

// TestNoRetryOnBadRequest: 4xx responses are permanent failures.
func TestNoRetryOnBadRequest(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"unknown scheme"}`))
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Backoff = time.Millisecond
	_, err := c.Submit(context.Background(), server.JobSpec{Workload: "gcc"})
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1 (no retry)", got)
	}
}

// TestRetryExhaustion: the client stops after Retries attempts and
// surfaces the last error.
func TestRetryExhaustion(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"job queue is full"}`))
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retries = 2
	c.Backoff = time.Millisecond
	_, err := c.Submit(context.Background(), server.JobSpec{Workload: "gcc"})
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want APIError 429", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (1 + 2 retries)", got)
	}
}

// TestWaitContextCancel: Wait must return promptly when its context is
// cancelled even though the job never finishes.
func TestWaitContextCancel(t *testing.T) {
	_, c := newBackend(t, server.Config{Workers: 1, QueueDepth: 4})
	v, err := c.Submit(context.Background(), server.JobSpec{
		Workload: "gcc", Scheme: sim.MORC,
		Config: json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 4000000000}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err = c.Wait(ctx, v.ID)
	if err != context.DeadlineExceeded {
		t.Fatalf("Wait = %v, want DeadlineExceeded", err)
	}
	if _, err := c.Cancel(context.Background(), v.ID); err != nil {
		t.Fatal(err)
	}
}
