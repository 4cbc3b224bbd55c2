package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"morc/internal/server"
)

// A coordinator promises clients morcd's /v1/jobs API. TestJobsAPIParity
// holds it to that: every case runs against a morcd and against a
// coordinator, and both must give the case's answer — the same status
// code, Retry-After header and error body.

// jobsAPI is one service behind the /v1/jobs API, served over HTTP.
type jobsAPI struct {
	url      string
	handler  http.Handler
	shutdown func(context.Context) error
	// pending, in a busy fixture, is a job that stays queued for the
	// whole case and fills the service's one-slot queue.
	pending string
}

// serveAPI fronts a service's handler with an HTTP server, torn down
// (and the service shut down) with the test.
func serveAPI(t *testing.T, h http.Handler, shutdown func(context.Context) error) *jobsAPI {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdown(ctx)
	})
	return &jobsAPI{url: ts.URL, handler: h, shutdown: shutdown}
}

// startMorcdAPI runs a one-worker morcd. Busy, its worker runs an
// endless job and a second job waits in its one-slot queue.
func startMorcdAPI(t *testing.T, busy bool) *jobsAPI {
	t.Helper()
	cfg := server.Config{Workers: 1, QueueDepth: 8}
	if busy {
		cfg.QueueDepth = 1
	}
	s := server.New(cfg)
	a := serveAPI(t, s.Handler(), s.Shutdown)
	if busy {
		blocker, err := s.Submit(server.JobSpec{Workload: "gcc",
			Config: json.RawMessage(`{"WarmupInstr": 10000, "MeasureInstr": 4000000000}`)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Cancel(blocker.ID) })
		for blocker.Status() == server.StatusQueued {
			time.Sleep(time.Millisecond)
		}
		pending, err := s.Submit(fastSpec())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Cancel(pending.ID) })
		a.pending = pending.ID
	}
	return a
}

// startCoordinatorAPI runs a coordinator in front of one peer. Busy, it
// has no peer and a job waits in its one-slot queue.
func startCoordinatorAPI(t *testing.T, busy bool) *jobsAPI {
	t.Helper()
	cfg := testClusterCfg()
	if busy {
		cfg.QueueDepth = 1
	} else {
		cfg.Peers = []string{startPeer(t).URL()}
	}
	c := New(cfg)
	a := serveAPI(t, c.Handler(), c.Shutdown)
	if busy {
		pending, err := c.Submit(fastSpec())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Cancel(pending.id) })
		a.pending = pending.id
	}
	return a
}

// call sends one request and returns its response.
func (a *jobsAPI) call(t *testing.T, method, path, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, a.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// answer is what a client sees of a response: the status code, any
// Retry-After, and the body with its JSON whitespace compacted.
func answer(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if json.Compact(&b, body) != nil {
		b.Reset()
		b.Write(body)
	}
	s := strconv.Itoa(resp.StatusCode)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		s += " Retry-After=" + ra
	}
	return s + " " + b.String()
}

// viewAnswer is answer for a job view: the status code, the job's
// status, and whether it carries a result.
func viewAnswer(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var v server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %s result=%v", resp.StatusCode, v.Status, v.Result != nil)
}

func request(method, path, body string) func(*testing.T, *jobsAPI) string {
	return func(t *testing.T, a *jobsAPI) string { return answer(t, a.call(t, method, path, body)) }
}

const fastSpecJSON = `{"workload":"gcc","scheme":"MORC","config":{"WarmupInstr":10000,"MeasureInstr":50000}}`

type parityCase struct {
	name string
	// busy runs the case with a job waiting in a full one-slot queue
	// (jobsAPI.pending); otherwise the service runs what it is given.
	busy bool
	do   func(*testing.T, *jobsAPI) string
	want string
}

var parityCases = []parityCase{
	{
		name: "malformed JSON",
		do:   request("POST", "/v1/jobs", `{{{`),
		want: `400 {"error":"invalid character '{' looking for beginning of object key string"}`,
	},
	{
		name: "unknown spec field",
		do:   request("POST", "/v1/jobs", `{"workload":"gcc","frobnicate":true}`),
		want: `400 {"error":"json: unknown field \"frobnicate\""}`,
	},
	{
		name: "unknown config override",
		do:   request("POST", "/v1/jobs", `{"workload":"gcc","config":{"Warmup":1}}`),
		want: `400 {"error":"bad config overrides: json: unknown field \"Warmup\""}`,
	},
	{
		// An experiment runs its own configurations, so overrides it
		// would ignore are refused.
		name: "config on an experiment job",
		do:   request("POST", "/v1/jobs", `{"experiment":"fig7","config":{"WarmupInstr":1,"MeasureInstr":1,"BWPerCore":0}}`),
		want: `400 {"error":"config overrides are only available for workload and mix jobs (an experiment runs its own configurations)"}`,
	},
	{
		name: "unknown workload",
		do:   request("POST", "/v1/jobs", `{"workload":"nope"}`),
		want: `400 {"error":"trace: unknown workload \"nope\""}`,
	},
	{
		name: "cache geometry no scheme can build",
		do:   request("POST", "/v1/jobs", `{"mix":"M0","scheme":"Skewed","config":{"L1Ways":3}}`),
		want: `400 {"error":"bad cache geometry: L1: cache: bad geometry size=32768 ways=3 (want a positive multiple of ways×64 bytes)"}`,
	},
	{
		// Removed settings fail strict decoding; values no run can use
		// fail sim.Config.Validate.
		name: "settings no run can use",
		do: func(t *testing.T, a *jobsAPI) string {
			var got []string
			for _, body := range []string{
				`{"workload":"gcc","sampling":{"IntervalInstr":15000}}`,
				`{"workload":"gcc","config":{"sampling":{"IntervalInstr":15000}}}`,
				`{"workload":"gcc","config":{"Telemetry":{"Every":1,"MaxEpochs":1000000000}}}`,
				`{"workload":"gcc","scheme":"MORC","config":{"MORCConfig":{"LogReplacement":1}}}`,
				`{"workload":"gcc","scheme":"MORC","config":{"MORCConfig":{"verifyreads":true}}}`,
				`{"workload":"gcc","config":{"BWPerCore":0}}`,
				`{"workload":"gcc","config":{"BWPerCore":-1}}`,
				`{"workload":"gcc","config":{"ClockHz":0}}`,
				`{"workload":"gcc","config":{"SampleEvery":0}}`,
				`{"mix":"M0","config":{"Threads":0}}`,
				`{"workload":"gcc","config":{"LLCLatency":-5}}`,
			} {
				got = append(got, answer(t, a.call(t, "POST", "/v1/jobs", body)))
			}
			return strings.Join(got, "; ")
		},
		want: `400 {"error":"json: unknown field \"sampling\""}; ` +
			`400 {"error":"bad config overrides: json: unknown field \"IntervalInstr\""}; ` +
			`400 {"error":"bad config overrides: json: unknown field \"MaxEpochs\""}; ` +
			`400 {"error":"bad config overrides: json: unknown field \"LogReplacement\""}; ` +
			`400 {"error":"bad config overrides: json: unknown field \"verifyreads\""}; ` +
			`400 {"error":"bad config: BWPerCore 0 must be positive"}; ` +
			`400 {"error":"bad config: BWPerCore -1 must be positive"}; ` +
			`400 {"error":"bad config: ClockHz 0 must be positive"}; ` +
			`400 {"error":"bad config: SampleEvery must be positive"}; ` +
			`400 {"error":"bad config: Threads 0 must be at least 1"}; ` +
			`400 {"error":"bad config: LLCLatency -5 must not be negative"}`,
	},
	{
		name: "queue full",
		busy: true,
		do:   request("POST", "/v1/jobs", fastSpecJSON),
		want: `429 Retry-After=1 {"error":"job queue is full"}`,
	},
	{
		name: "unknown ID on GET",
		do:   request("GET", "/v1/jobs/x000001", ""),
		want: `404 {"error":"no such job"}`,
	},
	{
		name: "unknown ID on DELETE",
		do:   request("DELETE", "/v1/jobs/x000001", ""),
		want: `404 {"error":"no such job"}`,
	},
	{
		name: "unknown ID on trace",
		do:   request("GET", "/v1/jobs/x000001/trace", ""),
		want: `404 {"error":"no such job"}`,
	},
	{
		name: "submit after shutdown",
		do: func(t *testing.T, a *jobsAPI) string {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := a.shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			return answer(t, a.call(t, "POST", "/v1/jobs", fastSpecJSON))
		},
		want: `503 {"error":"server is shutting down"}`,
	},
	{
		// Each listed job is named by its submission index.
		name: "listing order",
		do: func(t *testing.T, a *jobsAPI) string {
			index := map[string]int{}
			for i := range 3 {
				resp := a.call(t, "POST", "/v1/jobs", fastSpecJSON)
				var v server.JobView
				json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
				}
				index[v.ID] = i
			}
			resp := a.call(t, "GET", "/v1/jobs", "")
			defer resp.Body.Close()
			var list struct {
				Jobs []server.JobView `json:"jobs"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
				t.Fatal(err)
			}
			order := make([]int, 0, len(list.Jobs))
			for _, v := range list.Jobs {
				order = append(order, index[v.ID])
			}
			return fmt.Sprintf("%d %v", resp.StatusCode, order)
		},
		want: "200 [0 1 2]",
	},
	{
		// Answered when the job finishes, not when the window ends.
		name: "long-poll answers when the job finishes",
		do: func(t *testing.T, a *jobsAPI) string {
			resp := a.call(t, "POST", "/v1/jobs",
				`{"workload":"gcc","scheme":"MORC","config":{"WarmupInstr":10000,"MeasureInstr":1000000}}`)
			var v server.JobView
			json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			start := time.Now()
			got := viewAnswer(t, a.call(t, "GET", "/v1/jobs/"+v.ID+"?wait=25s", ""))
			if took := time.Since(start); took > 20*time.Second {
				t.Errorf("long-poll took %v: it waited out the window instead of answering at completion", took)
			}
			return got
		},
		want: "200 done result=true",
	},
	{
		name: "long-poll window expires with the current view",
		busy: true,
		do: func(t *testing.T, a *jobsAPI) string {
			start := time.Now()
			got := viewAnswer(t, a.call(t, "GET", "/v1/jobs/"+a.pending+"?wait=300ms", ""))
			if took := time.Since(start); took < 300*time.Millisecond {
				t.Errorf("answered after %v, before the 300ms window passed", took)
			}
			return got
		},
		want: "200 queued result=false",
	},
	{
		// Malformed, negative and over-cap windows are 400s, not clamps.
		name: "long-poll rejects bad windows",
		busy: true,
		do: func(t *testing.T, a *jobsAPI) string {
			var got []string
			for _, wait := range []string{"abc", "-1s", (server.MaxWait + time.Millisecond).String()} {
				got = append(got, answer(t, a.call(t, "GET", "/v1/jobs/"+a.pending+"?wait="+wait, "")))
			}
			return strings.Join(got, "; ")
		},
		want: `400 {"error":"bad wait: time: invalid duration \"abc\""}; ` +
			`400 {"error":"wait -1s out of range [0, 30s]"}; ` +
			`400 {"error":"wait 30.001s out of range [0, 30s]"}`,
	},
	{
		// A client that goes away mid-wait gets nothing written, and the
		// handler returns instead of sitting out the window.
		name: "cancelled long-poll writes nothing",
		busy: true,
		do: func(t *testing.T, a *jobsAPI) string {
			ctx, cancel := context.WithCancel(context.Background())
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+a.pending+"?wait=20s", nil).WithContext(ctx)
			rec := httptest.NewRecorder()
			exited := make(chan struct{})
			go func() {
				defer close(exited)
				a.handler.ServeHTTP(rec, req)
			}()
			time.Sleep(50 * time.Millisecond)
			cancel()
			select {
			case <-exited:
			case <-time.After(5 * time.Second):
				return "handler still parked after its request was cancelled"
			}
			return fmt.Sprintf("wrote %q, Content-Type %q", rec.Body.String(), rec.Header().Get("Content-Type"))
		},
		want: `wrote "", Content-Type ""`,
	},
	{
		// Once the service stops, a job that will never finish is
		// answered at once with its current view.
		name: "long-poll released by shutdown",
		busy: true,
		do: func(t *testing.T, a *jobsAPI) string {
			answered := make(chan string, 1)
			go func() {
				resp, err := http.Get(a.url + "/v1/jobs/" + a.pending + "?wait=25s")
				if err != nil {
					answered <- err.Error()
					return
				}
				resp.Body.Close()
				answered <- strconv.Itoa(resp.StatusCode)
			}()
			time.Sleep(50 * time.Millisecond)
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			a.shutdown(ctx)
			select {
			case got := <-answered:
				return got
			case <-time.After(10 * time.Second):
				return "long-poll still parked after shutdown"
			}
		},
		want: "200",
	},
}

func TestJobsAPIParity(t *testing.T) {
	services := []struct {
		name  string
		start func(*testing.T, bool) *jobsAPI
	}{{"morcd", startMorcdAPI}, {"coordinator", startCoordinatorAPI}}
	for _, tc := range parityCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, svc := range services {
				t.Run(svc.name, func(t *testing.T) {
					if got := tc.do(t, svc.start(t, tc.busy)); got != tc.want {
						t.Errorf("answered\n\t%s\nwant\n\t%s", got, tc.want)
					}
				})
			}
		})
	}
}
