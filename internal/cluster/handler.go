package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"morc/internal/obs"
	"morc/internal/server"
)

// Handler returns the coordinator's HTTP API. The /v1/jobs surface is
// the single-node morcd API, unchanged — clients, morcload, and the CI
// smoke drive a coordinator and a worker with the same code. The
// /v1/cluster surface adds peer registration and placement
// introspection.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", c.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.proxyHandler("/events"))
	mux.HandleFunc("GET /v1/jobs/{id}/timeseries", c.proxyHandler("/timeseries"))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", c.handleTrace)
	mux.HandleFunc("GET /v1/schemes", server.HandleSchemes)
	mux.HandleFunc("GET /v1/workloads", server.HandleWorkloads)
	mux.HandleFunc("POST /v1/cluster/join", c.handleJoin)
	mux.HandleFunc("GET /v1/cluster/peers", c.handlePeers)
	mux.HandleFunc("GET /v1/cluster/jobs/{id}", c.handlePlacement)
	mux.HandleFunc("GET /v1/cluster/overview", c.handleOverview)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	return server.LogRequests(c.log, mux)
}

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

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec server.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A traceparent header links the cluster job into the caller's
	// trace, exactly as on a single morcd (a client cannot tell the two
	// apart).
	parent, _ := obs.Extract(r.Header)
	j, err := c.SubmitTraced(spec, parent, obs.ClientMarked(r.Header))
	switch {
	case errors.Is(err, server.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, server.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.serveView())
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := c.Jobs()
	views := make([]server.JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.serveView())
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []server.JobView `json:"jobs"`
	}{views})
}

// handleJob serves GET /v1/jobs/{id}, with the ?wait= long-poll of a
// single morcd: the answer comes when the cluster job reaches a terminal
// state, the window passes, or coordination stops.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	wait, err := server.ParseWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, ok := c.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	if !server.LongPoll(r.Context(), wait, j.done, c.baseCtx.Done()) {
		return // the client went away
	}
	writeJSON(w, http.StatusOK, j.serveView())
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := c.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.serveView())
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		writeError(w, http.StatusBadRequest, errors.New("url must be an absolute http(s) base URL"))
		return
	}
	added := c.AddPeer(strings.TrimSuffix(req.URL, "/"))
	writeJSON(w, http.StatusOK, struct {
		Added bool       `json:"added"`
		Peers []PeerView `json:"peers"`
	}{added, c.Peers()})
}

func (c *Coordinator) handlePeers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Peers []PeerView `json:"peers"`
	}{c.Peers()})
}

// handleTrace serves GET /v1/jobs/{id}/trace: the coordinator's spans
// merged with the owning peer's, as JSON or NDJSON (?format=ndjson) —
// the same surface a single morcd serves.
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	te, ok := c.Trace(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
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

func (c *Coordinator) handleOverview(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Overview())
}

// PlacementView is the JSON shape of GET /v1/cluster/jobs/{id}: where a
// cluster job currently runs and how often it has failed over.
type PlacementView struct {
	ID       string `json:"id"`
	Peer     string `json:"peer,omitempty"`
	RemoteID string `json:"remote_id,omitempty"`
	Epoch    uint64 `json:"epoch"`
	Requeues int    `json:"requeues"`
	Terminal bool   `json:"terminal"`
}

func (c *Coordinator) handlePlacement(w http.ResponseWriter, r *http.Request) {
	j, ok := c.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	peer, remoteID, epoch, requeues, terminal := j.placement()
	writeJSON(w, http.StatusOK, PlacementView{
		ID: j.id, Peer: peer, RemoteID: remoteID,
		Epoch: epoch, Requeues: requeues, Terminal: terminal,
	})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetrics(w, c.metrics.snapshot(), c.Peers(), c.q.len(), c.cfg.QueueDepth)
}

// dispatchWait bounds how long a proxy request waits for a pending job
// to land on a peer before giving up.
const dispatchWait = 30 * time.Second

// proxyHandler forwards GET /v1/jobs/{id}<suffix> to the owning peer,
// streaming the response body verbatim — an SSE stream or a timeseries
// fetched through the coordinator is byte-identical to one fetched from
// the peer directly (internal/check pins this). If the job is still
// pending, the proxy waits briefly for placement.
func (c *Coordinator) proxyHandler(suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := c.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no such job"))
			return
		}
		peerURL, remoteID, ok := c.awaitPlacement(w, r, j)
		if !ok {
			return // awaitPlacement wrote the error
		}
		target := peerURL + "/v1/jobs/" + remoteID + suffix
		if r.URL.RawQuery != "" {
			target += "?" + r.URL.RawQuery
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		// Trace context crosses the proxy hop too, so even byte-verbatim
		// forwards stay correlated.
		obs.Forward(req.Header, r.Header)
		// Deliberately no client timeout: SSE streams live as long as
		// the job runs, bounded by the request context instead.
		resp, err := (&http.Client{}).Do(req)
		if err != nil {
			writeError(w, http.StatusBadGateway, err)
			return
		}
		defer resp.Body.Close()
		for _, h := range []string{"Content-Type", "Cache-Control"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		streamBody(w, resp.Body)
	}
}

// streamBody copies src to w, flushing after every chunk so SSE frames
// reach the client as the peer emits them instead of sitting in a
// buffer until the job ends.
func streamBody(w http.ResponseWriter, src io.Reader) {
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// awaitPlacement resolves the peer and remote ID serving the job,
// waiting for dispatch when it is still queued. False means an error
// response was already written (or the client went away).
func (c *Coordinator) awaitPlacement(w http.ResponseWriter, r *http.Request, j *cjob) (peerURL, remoteID string, ok bool) {
	deadline := time.Now().Add(dispatchWait)
	for {
		peer, remote, _, _, terminal := j.placement()
		if peer != "" && remote != "" {
			return peer, remote, true
		}
		if terminal {
			// Finished without ever reaching a peer (cancelled while
			// pending, or failed over to death): there is no stream.
			writeError(w, http.StatusNotFound, errors.New("job never ran on a peer"))
			return "", "", false
		}
		if time.Now().After(deadline) {
			writeError(w, http.StatusServiceUnavailable, errors.New("job not dispatched yet"))
			return "", "", false
		}
		select {
		case <-time.After(25 * time.Millisecond):
		case <-r.Context().Done():
			return "", "", false
		}
	}
}
