package server

import (
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
	RegisterJobs(mux, s, s.baseCtx.Done(), func(d time.Duration) { s.metrics.spanObserved("encode", d) })
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/timeseries", s.handleTimeseries)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	registerDebug(mux)
	return LogRequests(s.log, mux)
}

// JobService is the Go API the job handlers serve; *Server and the
// cluster coordinator implement it.
type JobService[J Tracked] interface {
	SubmitTraced(spec JobSpec, parent obs.SpanContext, synthesizeClient bool) (J, error)
	Job(id string) (J, bool)
	Jobs() []J
	Cancel(id string) (J, bool)
	Trace(id string) (obs.TraceExport, bool)
}

// RegisterJobs mounts the shared API on mux: submit, list, status with
// its ?wait= long-poll, cancel and trace under /v1/jobs, the stateless
// /v1/schemes and /v1/workloads catalog, and /healthz. stop releases
// parked long-polls when the service stops. encoded, if not nil,
// receives the encode time of every GET /v1/jobs/{id} answer.
func RegisterJobs[J Tracked](mux *http.ServeMux, svc JobService[J], stop <-chan struct{}, encoded func(time.Duration)) {
	h := jobHandlers[J]{svc: svc, stop: stop, encoded: encoded}
	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("GET /v1/jobs", h.list)
	mux.HandleFunc("GET /v1/jobs/{id}", h.job)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", h.trace)
	mux.HandleFunc("GET /v1/schemes", handleSchemes)
	mux.HandleFunc("GET /v1/workloads", handleWorkloads)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
}

type jobHandlers[J Tracked] struct {
	svc     JobService[J]
	stop    <-chan struct{}
	encoded func(time.Duration)
}

func (h jobHandlers[J]) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// A traceparent header links the job into the caller's trace: the
	// coordinator propagates its dispatch span, CLI clients additionally
	// mark tracestate so their submit span is synthesized server-side.
	parent, _ := obs.Extract(r.Header)
	j, err := h.svc.SubmitTraced(spec, parent, obs.ClientMarked(r.Header))
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShuttingDown):
		WriteError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		WriteError(w, http.StatusBadRequest, err)
	default:
		WriteJSON(w, http.StatusAccepted, j.View())
	}
}

func (h jobHandlers[J]) list(w http.ResponseWriter, r *http.Request) {
	jobs := h.svc.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	WriteJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

// job serves GET /v1/jobs/{id}. With ?wait= it parks until the job is
// done, the window passes or the service stops, whichever is first, and
// then answers with the job's view as it stands.
func (h jobHandlers[J]) job(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	j, ok := h.svc.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, ErrNoSuchJob)
		return
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-j.Done():
		case <-t.C:
		case <-h.stop:
		case <-r.Context().Done():
		}
	}
	if r.Context().Err() != nil {
		return // the client went away: there is no one to answer
	}
	// Result payloads can be large (full telemetry series, experiment
	// tables); encode time is part of the user-visible latency.
	t0 := time.Now()
	WriteJSON(w, http.StatusOK, j.View())
	if h.encoded != nil {
		h.encoded(time.Since(t0))
	}
}

func (h jobHandlers[J]) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := h.svc.Cancel(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, ErrNoSuchJob)
		return
	}
	WriteJSON(w, http.StatusOK, j.View())
}

// trace serves GET /v1/jobs/{id}/trace: the job's span tree as indented
// JSON, or NDJSON (one span per line) with ?format=ndjson.
func (h jobHandlers[J]) trace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := h.svc.Job(id); !ok {
		WriteError(w, http.StatusNotFound, ErrNoSuchJob)
		return
	}
	te, ok := h.svc.Trace(id)
	if !ok {
		WriteError(w, http.StatusNotFound, errors.New("no trace for job (evicted from the bounded store)"))
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

// MaxWait caps the long-poll window of GET /v1/jobs/{id}?wait=, which
// bounds how long one request can hold a connection and a goroutine.
const MaxWait = 30 * time.Second

// parseWait reads the ?wait= long-poll window of a job status request
// (a Go duration such as "5s"; absent means answer at once). A malformed,
// negative or over-MaxWait window is an error, for a 400.
func parseWait(r *http.Request) (time.Duration, error) {
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

// Catalog enumerates everything the server can run; served by
// /v1/workloads so clients never hardcode what morcsim used to.
type Catalog struct {
	Workloads   []string `json:"workloads"`
	Mixes       []string `json:"mixes"`
	Experiments []string `json:"experiments"`
}

// handleSchemes serves GET /v1/schemes.
func handleSchemes(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(sim.AllSchemes()))
	for _, sch := range sim.AllSchemes() {
		names = append(names, sch.String())
	}
	WriteJSON(w, http.StatusOK, struct {
		Schemes []string `json:"schemes"`
	}{names})
}

// handleWorkloads serves GET /v1/workloads.
func handleWorkloads(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, Catalog{
		Workloads:   trace.SingleProgramWorkloads(),
		Mixes:       trace.MixNames(),
		Experiments: exp.IDs(),
	})
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// WriteJSON answers with v as indented JSON under status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError answers with err in the JSON error envelope.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, apiError{Error: err.Error()})
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
	WriteJSON(w, http.StatusOK, s.Status())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.QueueDepth(), cap(s.queue), s.workers)
}
