package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"morc/internal/exp"
	"morc/internal/obs"
	"morc/internal/sim"
	"morc/internal/trace"
)

// Handler returns the HTTP API for the server, wrapped in the
// structured-access-log middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/timeseries", s.handleTimeseries)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/schemes", HandleSchemes)
	mux.HandleFunc("GET /v1/workloads", HandleWorkloads)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	registerDebug(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	return s.logRequests(mux)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A traceparent header links the job into the caller's trace: the
	// coordinator propagates its dispatch span, CLI clients additionally
	// mark tracestate so their submit span is synthesized server-side.
	parent, _ := obs.Extract(r.Header)
	job, err := s.SubmitTraced(spec, parent, obs.ClientMarked(r.Header))
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.View())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	wait, err := ParseWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	if !LongPoll(r.Context(), wait, j.Done(), s.baseCtx.Done()) {
		return // the client went away: there is no one to answer
	}
	// Result payloads can be large (full telemetry series, experiment
	// tables); encode time is part of the user-visible latency and gets
	// its own histogram phase.
	t0 := time.Now()
	writeJSON(w, http.StatusOK, j.View())
	s.metrics.spanObserved("encode", time.Since(t0))
}

// MaxWait caps the long-poll window of GET /v1/jobs/{id}?wait=, which
// bounds how long one request can hold a connection and a goroutine.
const MaxWait = 30 * time.Second

// ParseWait reads the ?wait= long-poll window of a job status request
// (a Go duration such as "5s"; absent means answer at once). A malformed,
// negative or over-MaxWait window is an error, for a 400.
func ParseWait(r *http.Request) (time.Duration, error) {
	q := r.URL.Query().Get("wait")
	if q == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil {
		return 0, fmt.Errorf("bad wait: %w", err)
	}
	if d < 0 || d > MaxWait {
		return 0, fmt.Errorf("wait %v out of range [0, %v]", d, MaxWait)
	}
	return d, nil
}

// LongPoll parks a job status request until the job is done, wait
// elapses, or stop closes (the server is stopping), whichever is first;
// the caller then answers with the job's view as it stands. It reports
// false when ctx, the request's context, ends first: the client is gone
// and nothing should be written.
func LongPoll(ctx context.Context, wait time.Duration, done, stop <-chan struct{}) bool {
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-done:
		case <-t.C:
		case <-stop:
		case <-ctx.Done():
		}
	}
	return ctx.Err() == nil
}

// handleTrace serves GET /v1/jobs/{id}/trace: the job's span tree as
// indented JSON, or NDJSON (one span per line) with ?format=ndjson.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	te, ok := s.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no trace for job (evicted from the bounded store)"))
		return
	}
	if r.URL.Query().Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		te.WriteNDJSON(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	te.WriteJSON(w)
}

// StatusView is the GET /v1/status snapshot: one scrape-friendly JSON
// object with queue/worker occupancy and lifetime job counters. The
// cluster coordinator's /v1/cluster/overview aggregates these across
// peers.
type StatusView struct {
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Workers       int     `json:"workers"`
	WorkersBusy   int     `json:"workers_busy"`
	Submitted     uint64  `json:"jobs_submitted"`
	Rejected      uint64  `json:"jobs_rejected"`
	Done          uint64  `json:"jobs_done"`
	Failed        uint64  `json:"jobs_failed"`
	Cancelled     uint64  `json:"jobs_cancelled"`
	SSEDropped    uint64  `json:"sse_dropped_frames"`
	UptimeSec     float64 `json:"uptime_sec"`
}

// Status snapshots the server for GET /v1/status.
func (s *Server) Status() StatusView {
	c := s.metrics.snapshot()
	return StatusView{
		QueueDepth:    s.QueueDepth(),
		QueueCapacity: cap(s.queue),
		Workers:       s.workers,
		WorkersBusy:   s.metrics.busy(),
		Submitted:     c.Submitted,
		Rejected:      c.Rejected,
		Done:          c.Done,
		Failed:        c.Failed,
		Cancelled:     c.Cancelled,
		SSEDropped:    c.SSEDropped,
		UptimeSec:     s.metrics.uptime().Seconds(),
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// Catalog enumerates everything the server can run; served by
// /v1/workloads so clients never hardcode what morcsim used to.
type Catalog struct {
	Workloads   []string `json:"workloads"`
	Mixes       []string `json:"mixes"`
	Experiments []string `json:"experiments"`
}

// HandleSchemes serves GET /v1/schemes. It is stateless and exported
// so a cluster coordinator answers catalog queries without forwarding
// them to a peer.
func HandleSchemes(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(sim.AllSchemes()))
	for _, sch := range sim.AllSchemes() {
		names = append(names, sch.String())
	}
	writeJSON(w, http.StatusOK, struct {
		Schemes []string `json:"schemes"`
	}{names})
}

// HandleWorkloads serves GET /v1/workloads; see HandleSchemes for why
// it is exported.
func HandleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Catalog{
		Workloads:   trace.SingleProgramWorkloads(),
		Mixes:       trace.MixNames(),
		Experiments: exp.IDs(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.QueueDepth(), cap(s.queue), s.workers)
}
