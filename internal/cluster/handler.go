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
// the single-node morcd API, served by morcd's own handlers
// (server.RegisterJobs) — clients, morcload, and the CI smoke drive a
// coordinator and a worker with the same code. Only the event and
// timeseries streams differ: they are proxied from the owning peer. The
// /v1/cluster surface adds peer registration and placement
// introspection.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	server.RegisterJobs(mux, c, c.baseCtx.Done(), nil)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.proxyHandler("/events"))
	mux.HandleFunc("GET /v1/jobs/{id}/timeseries", c.proxyHandler("/timeseries"))
	mux.HandleFunc("POST /v1/cluster/join", c.handleJoin)
	mux.HandleFunc("GET /v1/cluster/peers", c.handlePeers)
	mux.HandleFunc("GET /v1/cluster/jobs/{id}", c.handlePlacement)
	mux.HandleFunc("GET /v1/cluster/overview", c.handleOverview)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return server.LogRequests(c.log, mux)
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("url must be an absolute http(s) base URL"))
		return
	}
	added := c.AddPeer(strings.TrimSuffix(req.URL, "/"))
	server.WriteJSON(w, http.StatusOK, struct {
		Added bool       `json:"added"`
		Peers []PeerView `json:"peers"`
	}{added, c.Peers()})
}

func (c *Coordinator) handlePeers(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, struct {
		Peers []PeerView `json:"peers"`
	}{c.Peers()})
}

func (c *Coordinator) handleOverview(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.Overview())
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
		server.WriteError(w, http.StatusNotFound, server.ErrNoSuchJob)
		return
	}
	peer, remoteID, epoch, requeues, terminal := j.placement()
	server.WriteJSON(w, http.StatusOK, PlacementView{
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
			server.WriteError(w, http.StatusNotFound, server.ErrNoSuchJob)
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
			server.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		// Trace context crosses the proxy hop too, so even byte-verbatim
		// forwards stay correlated.
		obs.Forward(req.Header, r.Header)
		// Deliberately no client timeout: SSE streams live as long as
		// the job runs, bounded by the request context instead.
		resp, err := (&http.Client{}).Do(req)
		if err != nil {
			server.WriteError(w, http.StatusBadGateway, err)
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
			server.WriteError(w, http.StatusNotFound, errors.New("job never ran on a peer"))
			return "", "", false
		}
		if time.Now().After(deadline) {
			server.WriteError(w, http.StatusServiceUnavailable, errors.New("job not dispatched yet"))
			return "", "", false
		}
		select {
		case <-time.After(25 * time.Millisecond):
		case <-r.Context().Done():
			return "", "", false
		}
	}
}
