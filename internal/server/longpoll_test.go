package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	"morc/internal/sim"
)

// getJobWait GETs a job with a ?wait= long-poll window and reports how
// long the answer took.
func getJobWait(t *testing.T, ts *httptest.Server, id, wait string) (JobView, time.Duration) {
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
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v, time.Since(start)
}

// TestLongPollAnswersWhenJobFinishes: a job that finishes inside the
// window is answered when it finishes, terminal, not at the window's end.
func TestLongPollAnswersWhenJobFinishes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	j, err := s.Submit(JobSpec{Workload: "gcc", Scheme: sim.MORC,
		Config: json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 1000000}`)})
	if err != nil {
		t.Fatal(err)
	}
	for j.Status() == StatusQueued {
		time.Sleep(time.Millisecond)
	}
	got, took := getJobWait(t, ts, j.ID, "25s")
	if got.Status != StatusDone || got.Result == nil {
		t.Fatalf("long-poll answered %s (result %v), want done with a result", got.Status, got.Result != nil)
	}
	if took > 20*time.Second {
		t.Fatalf("long-poll took %v: it waited out the window instead of answering at completion", took)
	}
}

// TestLongPollWindowExpiresWithRunningView: a job still running when the
// window passes is answered with its current view, and the encode phase
// histogram times the encode, not the wait.
func TestLongPollWindowExpiresWithRunningView(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	j, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(j.ID)
	for j.Status() != StatusRunning {
		time.Sleep(5 * time.Millisecond)
	}
	got, took := getJobWait(t, ts, j.ID, "300ms")
	if got.Status != StatusRunning {
		t.Fatalf("window expired with status %s, want running", got.Status)
	}
	if took < 300*time.Millisecond {
		t.Fatalf("answered after %v, before the 300ms window passed", took)
	}
	m := regexp.MustCompile(`morcd_span_duration_seconds_sum\{phase="encode"\} (\S+)`).FindStringSubmatch(metricsText(t, ts))
	if m == nil {
		t.Fatal("no encode span histogram")
	}
	if sum, err := strconv.ParseFloat(m[1], 64); err != nil || sum >= 0.3 {
		t.Fatalf("encode histogram sum %s s: it timed the long-poll wait", m[1])
	}
}

// TestLongPollRejectsBadWindows: a malformed, negative or over-cap
// window is a 400, not a clamp.
func TestLongPollRejectsBadWindows(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	j, err := s.Submit(JobSpec{Workload: "gcc", Scheme: sim.MORC,
		Config: json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 20000}`)})
	if err != nil {
		t.Fatal(err)
	}
	for _, wait := range []string{"abc", "-1s", (MaxWait + time.Millisecond).String()} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "?wait=" + wait)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("wait=%s: HTTP %d, want 400", wait, resp.StatusCode)
		}
	}
}

// TestLongPollCancelledRequestWritesNothing: a client that goes away
// mid-wait gets no answer written, and the handler returns instead of
// sitting out the window.
func TestLongPollCancelledRequestWritesNothing(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	j, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(j.ID)
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID+"?wait=20s", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		s.Handler().ServeHTTP(rec, req)
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

// TestLongPollReleasedByForcedShutdown: when the drain deadline passes,
// a parked long-poll is answered at once instead of holding its
// connection for the rest of the window.
func TestLongPollReleasedByForcedShutdown(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	j, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	for j.Status() != StatusRunning {
		time.Sleep(5 * time.Millisecond)
	}
	answered := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "?wait=25s")
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
	s.Shutdown(ctx)
	select {
	case code := <-answered:
		if code != http.StatusOK {
			t.Fatalf("released long-poll: HTTP %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll still parked after a forced shutdown")
	}
}
