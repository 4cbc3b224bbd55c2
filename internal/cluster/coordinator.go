// Package cluster turns a set of morcd workers into one sweep cluster.
// A Coordinator speaks the same /v1/jobs API as a single morcd, but
// instead of running simulations itself it shards them across peer
// morcd instances:
//
//   - placement is work-stealing: pending jobs sit in one bounded FIFO
//     and every healthy peer's runner slots pull from it, so the least
//     loaded peer naturally takes the next job;
//   - health is tracked by periodic /healthz probes plus dispatch-path
//     failures — consecutive failures eject a peer, and ejected peers
//     are re-probed under exponential backoff until they answer again;
//   - failover is fenced: jobs owned by a dead peer are re-queued
//     exactly once per failure (the job's epoch increments), and any
//     result the old peer later delivers loses the fence and is
//     discarded deterministically;
//   - job status comes from a long-poll each runner keeps parked on the
//     owning peer, so a result lands as soon as the peer has it; cancel,
//     SSE event streams, and telemetry timeseries are proxied to the
//     peer — streams byte-for-byte, so a client cannot tell a
//     coordinator from the worker behind it.
//
// morcd simulations are pure functions of (spec), so a sweep submitted
// to a coordinator returns results byte-identical to a single-node run
// no matter how placement and failover shuffled the jobs;
// internal/check pins that.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"morc/internal/obs"
	"morc/internal/server"
	"morc/internal/server/client"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Peers are the worker base URLs known at startup; more can join at
	// runtime via POST /v1/cluster/join.
	Peers []string
	// QueueDepth bounds pending (not yet dispatched) jobs; default 256.
	QueueDepth int
	// SlotsPerPeer is how many jobs the coordinator keeps in flight on
	// one peer (default 4) — at least the peer's worker count keeps it
	// saturated; the excess queues there, not here.
	SlotsPerPeer int
	// Logger receives structured dispatch/failover logs (default
	// discard).
	Logger *slog.Logger

	// ProbeInterval is the health-check cadence (default 2s);
	// ProbeTimeout bounds one probe round-trip (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold is the consecutive-failure count that ejects a peer
	// (default 3).
	FailThreshold int
	// BackoffBase/BackoffMax shape the re-admission backoff of ejected
	// peers (defaults 1s/30s).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// SubmitTimeout bounds one dispatch round-trip including the
	// client's retries (default 15s). A runner long-polls its job on the
	// peer in windows of half of it.
	SubmitTimeout time.Duration
	// MaxRequeues is how many failovers one job survives before it is
	// failed (default 3).
	MaxRequeues int

	// NewClient builds the per-peer client; tests shorten its retry
	// policy. Default client.New.
	NewClient func(baseURL string) *client.Client
}

func (cfg Config) withDefaults() Config {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.SlotsPerPeer <= 0 {
		cfg.SlotsPerPeer = 4
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = time.Second
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 30 * time.Second
	}
	if cfg.SubmitTimeout <= 0 {
		cfg.SubmitTimeout = 15 * time.Second
	}
	if cfg.MaxRequeues <= 0 {
		cfg.MaxRequeues = 3
	}
	if cfg.NewClient == nil {
		cfg.NewClient = client.New
	}
	return cfg
}

// Coordinator owns the cluster job table, the pending queue, the peer
// registry, and the runner/prober goroutines.
type Coordinator struct {
	cfg     Config
	log     *slog.Logger
	reg     *registry
	q       *queue
	metrics *cmetrics

	// Tracing: the coordinator's half of every job trace (job root,
	// queue and dispatch spans); the owning peer's spans share the trace
	// ID and are merged in by Trace.
	spans *obs.Store
	table *server.Table[*cjob]

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// New builds a Coordinator, admits the seed peers, and starts their
// runner slots and the health prober.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	spans := obs.NewStore(0, 0)
	c := &Coordinator{
		cfg:     cfg,
		log:     cfg.Logger,
		reg:     newRegistry(cfg),
		q:       newQueue(cfg.QueueDepth),
		metrics: newCMetrics(),
		spans:   spans,
		baseCtx: ctx,
		stop:    cancel,
	}
	c.table = server.NewTable("c", obs.NewTracer("coordinator", spans),
		func(id string, spec server.JobSpec, span, queueSp *obs.ActiveSpan) *cjob {
			j := newCJob(id, spec, span, queueSp)
			j.metrics = c.metrics
			return j
		},
		c.q.push)
	for _, url := range cfg.Peers {
		c.AddPeer(url)
	}
	c.wg.Add(1)
	go c.probeLoop()
	return c
}

// AddPeer admits a worker (idempotently) and starts its runner slots.
// Returns true when the peer was new.
func (c *Coordinator) AddPeer(url string) bool {
	if c.table.Closed() || !c.reg.add(url) {
		return false
	}
	c.log.Info("peer admitted", "peer", url, "slots", c.cfg.SlotsPerPeer)
	c.wg.Add(c.cfg.SlotsPerPeer)
	for i := 0; i < c.cfg.SlotsPerPeer; i++ {
		go c.runSlot(url)
	}
	return true
}

// Peers snapshots the registry for /v1/cluster/peers.
func (c *Coordinator) Peers() []PeerView { return c.reg.snapshot() }

// Submit validates the spec and enqueues a cluster job with a fresh
// trace.
func (c *Coordinator) Submit(spec server.JobSpec) (*cjob, error) {
	return c.SubmitTraced(spec, obs.SpanContext{}, false)
}

// SubmitTraced is Submit with trace propagation, admitted exactly as
// on a single morcd (server.Table.Admit).
func (c *Coordinator) SubmitTraced(spec server.JobSpec, parent obs.SpanContext, synthesizeClient bool) (*cjob, error) {
	j, err := c.table.Admit(spec, parent, synthesizeClient)
	switch {
	case errors.Is(err, server.ErrQueueFull):
		c.metrics.rejected()
	case err == nil:
		c.metrics.submitted()
		c.log.Info("job queued", "job", j.id, "trace", j.traceID.String())
	}
	return j, err
}

// Trace exports a cluster job's full span tree: the coordinator's own
// spans (submit, queue, dispatch attempts) merged with the owning peer's
// (job, queue, run, sim phases), which share the trace ID via
// traceparent propagation on dispatch. When the peer cannot be reached —
// job still pending, peer ejected — the coordinator half is returned
// alone rather than failing the export.
func (c *Coordinator) Trace(id string) (obs.TraceExport, bool) {
	j, ok := c.Job(id)
	if !ok || j.traceID.IsZero() {
		return obs.TraceExport{}, false
	}
	te, ok := c.spans.Export(j.traceID)
	if !ok {
		return obs.TraceExport{}, false
	}
	peerURL, remoteID, _, _, _ := j.placement()
	if peerURL == "" || remoteID == "" {
		return te, true // never dispatched (or mid-failover): no peer half
	}
	cl := c.reg.clientFor(peerURL)
	if cl == nil {
		return te, true
	}
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.ProbeTimeout)
	defer cancel()
	remote, err := cl.Trace(ctx, remoteID)
	if err != nil {
		return te, true
	}
	seen := make(map[string]bool, len(te.Spans))
	for _, sp := range te.Spans {
		seen[sp.SpanID] = true
	}
	for _, sp := range remote.Spans {
		// The client-synthesized submit span can exist on both sides when
		// a CLI marker was forwarded; keep the coordinator's copy.
		if !seen[sp.SpanID] {
			te.Spans = append(te.Spans, sp)
		}
	}
	te.Dropped += remote.Dropped
	return te, true
}

// Job looks up a cluster job by ID.
func (c *Coordinator) Job(id string) (*cjob, bool) { return c.table.Job(id) }

// Jobs returns all jobs in submission order.
func (c *Coordinator) Jobs() []*cjob { return c.table.Jobs() }

// Cancel requests cancellation of a job; ok reports whether it exists.
func (c *Coordinator) Cancel(id string) (*cjob, bool) {
	j, ok := c.Job(id)
	if !ok {
		return nil, false
	}
	act, peerURL, remoteID := j.requestCancel()
	switch act {
	case cancelFinished:
		c.log.Info("job cancelled while pending", "job", j.id)
	case cancelRemote:
		if cl := c.reg.clientFor(peerURL); cl != nil {
			ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.SubmitTimeout)
			defer cancel()
			if _, err := cl.Cancel(ctx, remoteID); err != nil {
				c.log.Warn("remote cancel failed", "job", j.id, "peer", peerURL, "error", err)
			}
		}
	}
	return j, true
}

// QueueDepth is the number of pending (undispatched) jobs.
func (c *Coordinator) QueueDepth() int { return c.q.len() }

// runSlot is one peer runner: it parks while its peer is down, steals
// the next pending job when the peer is up, and shepherds that job to a
// terminal state (or back onto the queue) before pulling another. The
// slot count per peer is therefore the peer's max in-flight jobs from
// this coordinator.
func (c *Coordinator) runSlot(peerURL string) {
	defer c.wg.Done()
	idle := time.NewTicker(250 * time.Millisecond)
	defer idle.Stop()
	for {
		if c.baseCtx.Err() != nil {
			return
		}
		if !c.reg.isUp(peerURL) {
			select {
			case <-idle.C:
			case <-c.baseCtx.Done():
				return
			}
			continue
		}
		j := c.q.pop()
		if j == nil {
			select {
			case <-c.q.wakeCh():
			case <-idle.C:
			case <-c.baseCtx.Done():
				return
			}
			continue
		}
		c.runOne(peerURL, j)
	}
}

// peerCall runs one client round-trip against a peer, bounded by
// SubmitTimeout and released when the coordinator shuts down.
func (c *Coordinator) peerCall(f func(context.Context) (server.JobView, error)) (server.JobView, error) {
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.SubmitTimeout)
	defer cancel()
	return f(ctx)
}

// runOne dispatches one claimed job to the peer and long-polls it to a
// terminal state, so the result lands as soon as the peer has it. Every
// mutation of j is fenced by the epoch taken at claim time, so a
// failover while this runner is mid-flight turns the rest of its work
// into no-ops.
func (c *Coordinator) runOne(peerURL string, j *cjob) {
	epoch, prevPeer, dispatchSC, ok := j.claim(peerURL)
	if !ok {
		return // cancelled or failed over while queued
	}
	stolen := prevPeer != "" && prevPeer != peerURL
	c.reg.dispatchedJob(peerURL, stolen)
	defer c.reg.release(peerURL)

	cl := c.reg.clientFor(peerURL)
	if cl == nil {
		c.requeueOrFail(j, epoch, "peer vanished from registry")
		return
	}

	// The dispatch span context rides the submit as a traceparent
	// header, so the peer's spans join this job's trace.
	v, err := c.peerCall(func(ctx context.Context) (server.JobView, error) {
		return cl.SubmitWithTrace(ctx, j.spec, dispatchSC)
	})
	if err != nil {
		if c.reg.recordDispatchError(peerURL, time.Now()) {
			c.failPeer(peerURL)
		}
		c.log.Warn("dispatch failed", "job", j.id, "peer", peerURL, "error", err)
		c.requeueOrFail(j, epoch, fmt.Sprintf("submit to %s: %v", peerURL, err))
		return
	}
	c.reg.recordDispatchOK(peerURL)
	if !j.bind(epoch, v.ID, v) {
		// Failed over or cancelled while the submit was in flight: the
		// remote job is an orphan — stop it.
		c.cancelRemote(peerURL, v.ID)
		return
	}
	c.log.Info("job dispatched", "job", j.id, "peer", peerURL, "remote", v.ID, "epoch", epoch, "stolen", stolen)

	// Each long-poll parks on the peer until the job ends or the window
	// passes, which leaves the round-trip half of SubmitTimeout.
	wait := c.cfg.SubmitTimeout / 2
	for {
		if !j.ownedAt(epoch) {
			return // failed over (by the prober) or finished elsewhere
		}
		rv, err := c.peerCall(func(ctx context.Context) (server.JobView, error) {
			return cl.Poll(ctx, v.ID, wait)
		})
		if err != nil {
			if c.baseCtx.Err() != nil {
				return
			}
			down := c.reg.recordDispatchError(peerURL, time.Now())
			c.log.Warn("poll failed", "job", j.id, "peer", peerURL, "error", err)
			if down || !c.reg.isUp(peerURL) {
				if down {
					c.failPeer(peerURL)
				}
				c.requeueOrFail(j, epoch, fmt.Sprintf("peer %s unreachable", peerURL))
				return
			}
			continue
		}
		c.reg.recordDispatchOK(peerURL)
		if !rv.Status.Terminal() {
			j.updateView(epoch, rv)
			continue
		}
		if j.adopt(epoch, rv) {
			c.log.Info("job finished", "job", j.id, "peer", peerURL, "status", string(rv.Status))
		} else {
			c.reg.lateResult(peerURL)
			c.metrics.lateDiscarded()
			c.log.Warn("late result discarded by epoch fence", "job", j.id, "peer", peerURL, "epoch", epoch)
		}
		return
	}
}

// requeueOrFail opens the job's next dispatch generation and puts it at
// the head of the queue, or fails it once it has been bounced too many
// times. The epoch fence guarantees at most one caller wins per
// generation, so one peer death re-queues each affected job exactly
// once even though both the prober and the job's runner race to do it.
func (c *Coordinator) requeueOrFail(j *cjob, epoch uint64, reason string) {
	ok, finishedAs, fromPeer := j.requeue(epoch, c.cfg.MaxRequeues, reason)
	if finishedAs != "" {
		c.log.Warn("job finished during failover", "job", j.id, "status", string(finishedAs), "reason", reason)
		return
	}
	if !ok {
		return // someone else already handled this generation
	}
	if fromPeer != "" {
		c.reg.requeuedJob(fromPeer)
	}
	c.metrics.requeued()
	c.q.pushFront(j)
	c.log.Warn("job requeued", "job", j.id, "from", fromPeer, "reason", reason)
}

// failPeer re-queues every job the (just-ejected) peer owns. Runners
// polling those jobs lose the epoch fence and abandon them.
func (c *Coordinator) failPeer(peerURL string) {
	c.log.Warn("peer ejected", "peer", peerURL)
	type owned struct {
		j        *cjob
		epoch    uint64
		remoteID string
	}
	var take []owned
	for _, j := range c.Jobs() {
		p, remoteID, epoch, _, terminal := j.placement()
		if !terminal && p == peerURL {
			take = append(take, owned{j: j, epoch: epoch, remoteID: remoteID})
		}
	}
	for _, o := range take {
		c.requeueOrFail(o.j, o.epoch, fmt.Sprintf("peer %s ejected", peerURL))
		if o.remoteID != "" {
			// Best-effort: stop the orphaned run if the peer comes back.
			c.cancelRemote(peerURL, o.remoteID)
		}
	}
}

// cancelRemote fires a best-effort DELETE at a peer without blocking
// the caller on a possibly-dead host.
func (c *Coordinator) cancelRemote(peerURL, remoteID string) {
	cl := c.reg.clientFor(peerURL)
	if cl == nil {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.SubmitTimeout)
		defer cancel()
		cl.Cancel(ctx, remoteID)
	}()
}

// probeLoop drives health checking: snapshot the due targets, probe
// them concurrently outside any lock, fold the outcomes back in, and
// fail over the peers this round ejected.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-c.baseCtx.Done():
			return
		}
		targets := c.reg.probeTargets(time.Now())
		type outcome struct {
			url     string
			latency time.Duration
			err     error
		}
		results := make(chan outcome, len(targets))
		for _, t := range targets {
			go func(t probeTarget) {
				ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.ProbeTimeout)
				defer cancel()
				start := time.Now()
				err := t.client.Healthz(ctx)
				results <- outcome{url: t.url, latency: time.Since(start), err: err}
			}(t)
		}
		for range targets {
			o := <-results
			if o.err != nil {
				c.log.Warn("probe failed", "peer", o.url, "error", o.err)
			}
			if c.reg.recordProbe(o.url, o.latency, o.err, time.Now()) {
				c.failPeer(o.url)
			}
		}
	}
}

// Shutdown stops accepting jobs, waits for every admitted job to reach
// a terminal state until ctx expires, then tears down the runners. Jobs
// already running on peers keep running there; only coordination stops.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.table.Close()
	err := c.table.Drain(ctx)
	c.stop()
	c.wg.Wait()
	return err
}
