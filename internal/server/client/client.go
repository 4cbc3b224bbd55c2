// Package client is the typed Go client for morcd, the simulation job
// server. It wraps the JSON API of morc/internal/server with timeouts,
// retry-with-backoff on transient failures, and a wait-until-terminal
// helper built on the server's long-poll, so Go callers (and morcd
// -submit) never hand-roll HTTP.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"morc/internal/obs"
	"morc/internal/server"
	"morc/internal/telemetry"
)

// Client talks to one morcd instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8077".
	BaseURL string
	// HTTPClient defaults to a client with a 30s request timeout.
	HTTPClient *http.Client
	// Retries is the number of attempts beyond the first for transient
	// failures: network errors, 429 (queue full), and 5xx. Default 3.
	Retries int
	// Backoff is the initial retry delay, doubling per attempt.
	// Default 200ms.
	Backoff time.Duration
}

// New returns a Client with the default timeout and retry policy.
func New(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
		Retries:    3,
		Backoff:    200 * time.Millisecond,
	}
}

// APIError is a non-2xx response from the server.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("morcd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// transient reports whether the failure is worth retrying: queue-full
// backpressure and server-side errors are; 4xx spec errors are not.
func transient(err error) bool {
	if apiErr, ok := err.(*APIError); ok {
		return apiErr.StatusCode == http.StatusTooManyRequests ||
			apiErr.StatusCode >= 500
	}
	return err != nil // network-level failure
}

// do performs one HTTP round-trip with the retry policy, decoding a JSON
// response into out (if non-nil). body is re-marshalled per attempt.
func (c *Client) do(ctx context.Context, method, path string, hdr http.Header, body, out any) error {
	retries := c.Retries
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = c.once(ctx, method, path, hdr, body, out)
		if err == nil || !transient(err) || attempt >= retries {
			return err
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff *= 2
	}
}

func (c *Client) once(ctx context.Context, method, path string, hdr http.Header, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var apiErr struct {
			Error string `json:"error"`
		}
		msg := http.StatusText(resp.StatusCode)
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return &APIError{StatusCode: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Submit enqueues a job and returns its initial view (status "queued").
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (server.JobView, error) {
	var v server.JobView
	err := c.do(ctx, http.MethodPost, "/v1/jobs", nil, spec, &v)
	return v, err
}

// SubmitTraced is Submit originating a new trace: it mints a root span
// context, propagates it with the client tracestate marker (the server
// synthesizes the submit span on our behalf — CLI processes have nowhere
// durable to store spans), and returns the context so the caller can
// correlate. The returned JobView's TraceID matches sc.TraceID.
func (c *Client) SubmitTraced(ctx context.Context, spec server.JobSpec) (server.JobView, obs.SpanContext, error) {
	sc := obs.NewRoot()
	hdr := http.Header{}
	obs.InjectClient(hdr, sc)
	var v server.JobView
	err := c.do(ctx, http.MethodPost, "/v1/jobs", hdr, spec, &v)
	return v, sc, err
}

// SubmitWithTrace is Submit under an existing span context (no client
// marker): the job span is parented to sc, whose owner records it
// elsewhere. The cluster coordinator uses this to link peer jobs under
// its dispatch spans.
func (c *Client) SubmitWithTrace(ctx context.Context, spec server.JobSpec, sc obs.SpanContext) (server.JobView, error) {
	hdr := http.Header{}
	obs.Inject(hdr, sc)
	var v server.JobView
	err := c.do(ctx, http.MethodPost, "/v1/jobs", hdr, spec, &v)
	return v, err
}

// Trace fetches a job's exported span tree (GET /v1/jobs/{id}/trace).
func (c *Client) Trace(ctx context.Context, id string) (obs.TraceExport, error) {
	var te obs.TraceExport
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, nil, &te)
	return te, err
}

// Status fetches the server's queue/worker/counter snapshot
// (GET /v1/status).
func (c *Client) Status(ctx context.Context) (server.StatusView, error) {
	var st server.StatusView
	err := c.do(ctx, http.MethodGet, "/v1/status", nil, nil, &st)
	return st, err
}

// Job fetches a job's current status/result.
func (c *Client) Job(ctx context.Context, id string) (server.JobView, error) {
	return c.Poll(ctx, id, 0)
}

// Poll long-polls a job (GET /v1/jobs/{id}?wait=): the server answers
// as soon as the job reaches a terminal state, or with its current view
// once wait has passed. wait is capped at half the client's HTTP
// timeout, so an answer sent when the window closes still arrives in
// time, and at server.MaxWait.
func (c *Client) Poll(ctx context.Context, id string, wait time.Duration) (server.JobView, error) {
	path := "/v1/jobs/" + id
	if wait = min(wait, c.maxWait()); wait > 0 {
		path += "?" + url.Values{"wait": {wait.String()}}.Encode()
	}
	var v server.JobView
	err := c.do(ctx, http.MethodGet, path, nil, nil, &v)
	return v, err
}

// maxWait is the longest long-poll window the client asks for.
func (c *Client) maxWait() time.Duration {
	if c.HTTPClient != nil && c.HTTPClient.Timeout > 0 {
		return min(server.MaxWait, c.HTTPClient.Timeout/2)
	}
	return server.MaxWait
}

// Jobs lists every job the server knows about.
func (c *Client) Jobs(ctx context.Context) ([]server.JobView, error) {
	var out struct {
		Jobs []server.JobView `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, nil, &out)
	return out.Jobs, err
}

// Cancel requests cancellation and returns the job's view.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobView, error) {
	var v server.JobView
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil, &v)
	return v, err
}

// Wait long-polls the job until it reaches a terminal state or ctx is
// done, so it returns as soon as the job finishes, making one request
// per long-poll window while the job runs. Poll errors are transient by
// construction (do retries), so a failed poll aborts the wait.
func (c *Client) Wait(ctx context.Context, id string) (server.JobView, error) {
	for {
		v, err := c.Poll(ctx, id, c.maxWait())
		if ctx.Err() != nil {
			return v, ctx.Err()
		}
		if err != nil || v.Status.Terminal() {
			return v, err
		}
	}
}

// Timeseries fetches a job's telemetry series: the exact final series
// for a finished job, or the epochs streamed so far for a running one.
// The job must have been submitted with JobSpec.Telemetry set (or a
// Telemetry config override); otherwise the server responds 404.
func (c *Client) Timeseries(ctx context.Context, id string) (*telemetry.Series, error) {
	var ts telemetry.Series
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/timeseries", nil, nil, &ts)
	if err != nil {
		return nil, err
	}
	return &ts, nil
}

// Healthz probes the server's liveness endpoint. It performs exactly
// one round-trip regardless of the retry policy — health checkers own
// their own failure accounting and must see every miss.
func (c *Client) Healthz(ctx context.Context) error {
	return c.once(ctx, http.MethodGet, "/healthz", nil, nil, nil)
}

// Join announces selfURL to a coordinator's peer registry
// (POST /v1/cluster/join). Idempotent: re-announcing an already-known
// peer is a no-op, so peers heartbeat it freely.
func (c *Client) Join(ctx context.Context, selfURL string) error {
	return c.do(ctx, http.MethodPost, "/v1/cluster/join", nil, struct {
		URL string `json:"url"`
	}{selfURL}, nil)
}

// Events opens the raw SSE stream for a job (GET /v1/jobs/{id}/events).
// The caller owns the returned body and must Close it; the stream ends
// after the "done" frame. No retry policy applies — an SSE consumer
// re-subscribes itself, replaying buffered epochs on reconnect.
func (c *Client) Events(ctx context.Context, id string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	// The default client's 30s timeout would sever long streams; SSE
	// lifetime is governed by ctx instead.
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var apiErr struct {
			Error string `json:"error"`
		}
		msg := http.StatusText(resp.StatusCode)
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return nil, &APIError{StatusCode: resp.StatusCode, Message: msg}
	}
	return resp.Body, nil
}

// Schemes lists the LLC organizations the server can simulate.
func (c *Client) Schemes(ctx context.Context) ([]string, error) {
	var out struct {
		Schemes []string `json:"schemes"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/schemes", nil, nil, &out)
	return out.Schemes, err
}

// Catalog lists the workloads, mixes, and experiments the server can run.
func (c *Client) Catalog(ctx context.Context) (server.Catalog, error) {
	var out server.Catalog
	err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, nil, &out)
	return out, err
}
