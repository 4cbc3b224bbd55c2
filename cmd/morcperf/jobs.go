package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"morc/internal/cluster"
	"morc/internal/server"
	"morc/internal/server/client"
	"morc/internal/sim"
)

// jobClients is the closed loop's client count: each sends its next job
// only after the previous one's result is in.
const jobClients = 2

// jobPoll is how often a client polls the coordinator for a job's
// terminal state once the job's SSE stream has said done.
const jobPoll = 5 * time.Millisecond

// Client-side spans, in the order they tile a job's latency.
var clientSpans = [4]string{"client.submit", "client.events", "cluster.notify_lag", "client.result"}

// serverSpans maps service:span names in a job's exported trace to the
// per-layer metric they feed.
var serverSpans = map[string]string{
	"coordinator:queue":    "cluster.queue",
	"coordinator:dispatch": "cluster.dispatch",
	"morcd:queue":          "server.queue",
	"morcd:run":            "server.run",
}

// jobSample is one job as a client saw it.
type jobSample struct {
	id     string
	ms     float64
	spans  [len(clientSpans)]float64
	result []byte // the Result JSON the coordinator returned
	err    error
}

// startCluster stands up a morcd peer (default server.Config) behind a
// coordinator (default cluster.Config) on loopback and waits until the
// coordinator answers /healthz. stop tears both down.
func startCluster(ctx context.Context) (coordURL string, stop func(), err error) {
	peer := server.New(server.Config{})
	peerURL, stopPeer, err := serveLoopback(peer.Handler())
	if err != nil {
		return "", nil, fmt.Errorf("peer: %w", err)
	}
	coord := cluster.New(cluster.Config{Peers: []string{peerURL}})
	coordURL, stopCoord, err := serveLoopback(coord.Handler())
	stop = func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		coord.Shutdown(sctx)
		if stopCoord != nil {
			stopCoord()
		}
		peer.Shutdown(sctx)
		stopPeer()
	}
	if err != nil {
		stop()
		return "", nil, fmt.Errorf("coordinator: %w", err)
	}
	cl := client.New(coordURL)
	for cl.Healthz(ctx) != nil {
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			stop()
			return "", nil, fmt.Errorf("coordinator never became healthy: %w", ctx.Err())
		}
	}
	return coordURL, stop, nil
}

// jobsRep drives the specs through a fresh cluster from a closed loop of
// clients, reads each job's trace back, and checks every result against
// a local run of its spec.
func jobsRep(ctx context.Context, specs []server.JobSpec, t0 time.Time) repResult {
	rr := repResult{Kind: kindJobs, Ops: len(specs)}
	coordURL, stop, err := startCluster(ctx)
	if err != nil {
		rr.fail("%v", err)
		rr.Failed = len(specs) // none of the jobs ran
		return rr
	}
	defer stop()
	rr.SetupSec = time.Since(t0).Seconds()

	samples := make([]jobSample, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range jobClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(coordURL)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				samples[i] = runJob(ctx, cl, specs[i])
			}
		}()
	}
	wg.Wait()
	rr.WallSec = time.Since(start).Seconds()
	rr.CPUSec, rr.RSSMB = usage()
	cl := client.New(coordURL)

	rr.Spans = map[string][]float64{}
	refs := map[string]*reference{}
	h := sha256.New()
	for i, s := range samples {
		ref, err := referenceFor(ctx, specs[i], refs)
		switch {
		case s.err != nil:
			err = s.err
		case err == nil && !bytes.Equal(s.result, ref.result):
			err = errors.New("result differs from a local run of the same spec")
		}
		if err != nil {
			rr.fail("job %d (%s%s): %v", i, specs[i].Workload, specs[i].Mix, err)
			continue
		}
		h.Write(s.result)
		rr.Instr += ref.run.instr()
		rr.JobMs = append(rr.JobMs, s.ms)
		for j, name := range clientSpans {
			rr.Spans[name] = append(rr.Spans[name], s.spans[j])
		}
		spans, err := traceSpans(ctx, cl, s.id)
		if err != nil {
			rr.fail("job %d trace: %v", i, err)
			continue
		}
		for name, v := range spans {
			rr.Spans[name] = append(rr.Spans[name], v)
		}
	}
	rr.Digest = hex.EncodeToString(h.Sum(nil))
	return rr
}

// runJob times one job: submit, then the job's SSE stream until its done
// frame, then polling the coordinator until it reports the job terminal,
// which returns the result.
func runJob(ctx context.Context, cl *client.Client, spec server.JobSpec) jobSample {
	var s jobSample
	start := time.Now()
	v, err := cl.Submit(ctx, spec)
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	s.id = v.ID
	submitted := time.Now()
	if err := awaitDoneFrame(ctx, cl, v.ID); err != nil {
		s.err = err
		return s
	}
	notified := time.Now()
	var polled time.Time
	for {
		polled = time.Now()
		v, err = cl.Job(ctx, v.ID)
		if err != nil {
			s.err = fmt.Errorf("poll: %w", err)
			return s
		}
		if v.Status.Terminal() {
			break
		}
		select {
		case <-time.After(jobPoll):
		case <-ctx.Done():
			s.err = ctx.Err()
			return s
		}
	}
	end := time.Now()
	s.ms = ms(end.Sub(start))
	s.spans = [...]float64{ms(submitted.Sub(start)), ms(notified.Sub(submitted)), ms(polled.Sub(notified)), ms(end.Sub(polled))}
	if v.Status != server.StatusDone || v.Result == nil {
		s.err = fmt.Errorf("finished %s without a result: %s", v.Status, v.Error)
		return s
	}
	s.result, s.err = json.Marshal(v.Result)
	return s
}

// awaitDoneFrame reads a job's SSE stream until its "done" frame and
// then to the end, so the connection can be reused.
func awaitDoneFrame(ctx context.Context, cl *client.Client, id string) error {
	body, err := cl.Events(ctx, id)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer body.Close()
	sc := bufio.NewScanner(body)
	done := false
	for sc.Scan() {
		if sc.Text() == "event: done" {
			done = true
			break
		}
	}
	if !done {
		return errors.New("events: stream ended without a done frame")
	}
	_, err = io.Copy(io.Discard, body)
	return err
}

// reference is the simulation a job spec runs and its Result JSON from
// a local run, which the job's result must equal byte for byte.
type reference struct {
	run    simRun
	result []byte
}

// referenceFor returns spec's reference, running it once per distinct
// spec; refs caches them.
func referenceFor(ctx context.Context, spec server.JobSpec, refs map[string]*reference) (*reference, error) {
	key, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if ref, ok := refs[string(key)]; ok {
		return ref, nil
	}
	run, err := specSim(spec)
	if err != nil {
		return nil, err
	}
	res, err := sim.New(run.Cfg, run.Progs).RunCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	ref := &reference{run: run}
	if ref.result, err = json.Marshal(res); err != nil {
		return nil, err
	}
	refs[string(key)] = ref
	return ref, nil
}

// traceSpans reads a job's merged coordinator+peer trace back and sums
// the duration of each service-side span it attributes, in ms.
func traceSpans(ctx context.Context, cl *client.Client, id string) (map[string]float64, error) {
	te, err := cl.Trace(ctx, id)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(serverSpans))
	for _, name := range serverSpans {
		out[name] = 0
	}
	for _, sp := range te.Spans {
		if name, ok := serverSpans[sp.Service+":"+sp.Name]; ok && sp.End != 0 {
			out[name] += ms(time.Duration(sp.End - sp.Start))
		}
	}
	return out, nil
}

// serveLoopback serves h on an ephemeral loopback port. stop shuts the
// server down and returns once its goroutine has exited.
func serveLoopback(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		srv.Serve(ln)
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		<-exited
	}
	return "http://" + ln.Addr().String(), stop, nil
}
